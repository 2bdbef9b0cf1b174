package repro_test

// Cross-commit regression gate. Every differential suite compares two
// paths inside one build, so none of them shows that a refactor left the
// outputs unchanged from one commit to the next. This test pins them:
// the seven paper workloads and the planted fixtures are profiled once
// exactly and once statistically, the optimizer runs once on the mislaid
// fixture, and the SHA-256 of each rendered artifact must match its
// recorded digest. TestOptimizePaperWorkloads checks the seven paper
// workloads' optimizer decisions against the "/exact/decision" digests
// here. A deliberate output change replaces the digests with the ones
// the failure messages print.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/optimize"
	"repro/internal/workloads"
	"repro/structslim"
)

const goldenWindow = 64

var goldenModes = []struct {
	name string
	set  func(*structslim.Options)
}{
	{"exact", func(*structslim.Options) {}},
	{"statistical", func(o *structslim.Options) { o.VM.StatWindow = goldenWindow }},
}

var goldenDigests = map[string]string{
	"art/exact/decision":                "c448816a5c113a4ef2a99352d9d9a98a2bb9998e007a516a07cffb818d0c2ed8",
	"art/exact/report":                  "02488355e81b09c3b31f509a06ef4b6803f00a71c1874d1dd5169208f1c99d41",
	"art/exact/statreport":              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"art/exact/stats":                   "92bf340095d399a5d4f43cf5262c5016cac0fed32d76b13afc16e26b42f18073",
	"art/statistical/report":            "08630c7ac73d1bab2a628a7dc298c8a389ad48cf6623f32f8835de96e02fa1f7",
	"art/statistical/statreport":        "af62bd8a6f4b6d660c9876535b6b696eba0e266200daba5fd4fe0e16882d387a",
	"art/statistical/stats":             "d9020031edb9cf6559eb887e5c0328157284fc1d89aef3b15b9221272d04eaae",
	"clomp/exact/decision":              "29f30f7716b88e3204880fec4990cf0eaac22b9ee2ad2c3fda968e60b75108f8",
	"clomp/exact/report":                "adc58661f737f7580e70228c362110269efc5f4b0172a0dc18f8f0269566dbce",
	"clomp/exact/statreport":            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"clomp/exact/stats":                 "b282ccca8b880385b0145d9f1e14bfa02852ff9d335915b3835af3a2f743da69",
	"clomp/statistical/report":          "7f798dc0c554dcf5684c17e5c49ae684a0f843386eda53c26fda1ce2fcc35cd6",
	"clomp/statistical/statreport":      "3f22bdcb4e165379f3b477b578dea96248abcd6b64cea368b87a076a57d59a0e",
	"clomp/statistical/stats":           "99dc8532901e2aa30b3db98f3de8cc5d559041de889e259b427d1b457cad99fd",
	"escape/exact/report":               "39c2a60bd3940075079613cb63a99664961cdf39de97344612f476739eb09354",
	"escape/exact/statreport":           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"escape/exact/stats":                "b93f67ff972be04fb72a44d3656df85414fef1fe55510737ba2bd64b7b137aa2",
	"escape/statistical/report":         "7d8552c06d43b95ec94e68e42ba28fba0854689e2190e150b27436d039031749",
	"escape/statistical/statreport":     "dd58b2c9de53d03e3a89c9f18f688de6d9ec6db79c3c46007ab131735559d0cf",
	"escape/statistical/stats":          "2555a066c8b90e117348557ca9b8d547eb4f6ae47ad9d56ae759998125937cfb",
	"falseshare/exact/report":           "bc7427020035d671251e2fbbf9bc6561542c029f96369d9aa5d440bdba15ebf4",
	"falseshare/exact/statreport":       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"falseshare/exact/stats":            "21fe021f7875abaa6967a946722b9e7dc5ea882556dc9a1c303a8e3d78ff4c08",
	"falseshare/statistical/report":     "62448ef59b1a47afed81f320a88c63f46a0ef6a263d33dea87d3f1ec941be0ea",
	"falseshare/statistical/statreport": "a4637e98be61864186b2c1ad8d2512657e9e6b32600b27b413fdd61cbcecf5c9",
	"falseshare/statistical/stats":      "99dabf3b53f605fb6bef5c10c452dda313dd247dcf7e31b7a80b7682566fccb1",
	"health/exact/decision":             "428d08517f378d598f92f7bd557957de44745f475c730b17e2aa47e6c7873c22",
	"health/exact/report":               "5918bd24d1df6992acdbe2adc95b81c8a617a576ef492ed544bc154d13a8ad4d",
	"health/exact/statreport":           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"health/exact/stats":                "19fafdacebb0b3d6bdeb82db65106b46c034e514ad6b7d02bc9a0e47dd9713d5",
	"health/statistical/report":         "efcfa8eaf102acd91442413fb6871873ed68ed9295d194ee30799fcc19309ea7",
	"health/statistical/statreport":     "1418a1e398ffc7c40f8d3498b93daaf2bbb3de467cf4883d6560d54d7664511b",
	"health/statistical/stats":          "ddcf4a2aa4be73263d2eed05336c646d62671a02c378fb5cfbfb4b864863a31c",
	"libquantum/exact/decision":         "1291476c23ee8c7831f9f5a5331ca298a535a340208850e4c4a669a9af88f846",
	"libquantum/exact/report":           "801239f120be991b2b7a302825dc9ce17a9d61875b7cf5bfec57a11a0a803400",
	"libquantum/exact/statreport":       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"libquantum/exact/stats":            "283e8f92343ccd8783c0ce2e0aa7bd0542d200fa59fb17c742bbe6dbc4f1c60f",
	"libquantum/statistical/report":     "2beba42a8d5a514d9cea255293ab0fb8e508f2543d26a97e08f54bace9f64bb6",
	"libquantum/statistical/statreport": "37cb43b54a0d18242da789602202a6ff96c505925831a25f11846a2cd05c10af",
	"libquantum/statistical/stats":      "b75aefc210d8d93176523f4a21e355a06b3c1545ac17bcd13ba45c3cc015bdf9",
	"mislaid/exact/optimize":            "93131f449e6e150ff9b5261b805d5c30d92b1cec51d1db1d4a0e83152d471427",
	"mislaid/exact/report":              "fc7e59c521f9ae62d8e6e750f68160d95136c29fc5614bb4d51f990ba6fe850f",
	"mislaid/exact/statreport":          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"mislaid/exact/stats":               "676242ab73fa29bf72284fb41353d9c48db0592e17a0a70d0b8e4b4ea79ebb5d",
	"mislaid/statistical/report":        "990671a62922e55d25748957ff70ea51b035150c7bc51f63ff54343dfeea3620",
	"mislaid/statistical/statreport":    "14202b84f25abc26a855ddf222de73ac21924cbc1836c3a14a2147338201ab5f",
	"mislaid/statistical/stats":         "075f8734b464658e7623badbea9a82dcd7e78f86219f3ec492064595ea79fa45",
	"mser/exact/decision":               "6e2350fa28cf2e686e5b054e471ed00656627dafcad0406796eba0806431372c",
	"mser/exact/report":                 "924f0937012cb98f54ccc189d846061159c12db102924f547f1c5478185c4f4c",
	"mser/exact/statreport":             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"mser/exact/stats":                  "a06eae6ddc16dbc3576f0d7e9940853b71dd6f0a8244087cfb759162754ed064",
	"mser/statistical/report":           "6803bf164116692993ad6c470d3812f280d30b749ed4a2f10459778b027d2805",
	"mser/statistical/statreport":       "6c60b93307a086a85da144f68e3b0a1305a05b00bf4957612e0ca9eb3ecfa1b3",
	"mser/statistical/stats":            "1042c316bd5640bd5bba4eb591d7717d680bd2083792198586b52c816e70d752",
	"nn/exact/decision":                 "155858f8701aa79ab2e4732424b42503be11e746975d6cb9779991fa6d1be5c8",
	"nn/exact/report":                   "8313c083c38706da3a61d0e8762db2085fc02a5fdcac98cc36ea92d958370e48",
	"nn/exact/statreport":               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"nn/exact/stats":                    "6c50e3449c4e1f6495146232a0d01d2ad7fa1e6a92dc89f7867e460008074bdd",
	"nn/statistical/report":             "b67fd0fe1d3ab4eb75ae64c612cd7430073d44fb97384671f372a43815a83618",
	"nn/statistical/statreport":         "a8dabd4d8647a6253f0c9134463ca5505c3c91259206a22a24176fa0b04c457d",
	"nn/statistical/stats":              "3e9f09a9b4568c4fb120c8c8f7f19c8f28c80657f1023372817460616d331397",
	"tsp/exact/decision":                "c5248c63400c709326f7ff4f977dedc7b4dbc4a99e5893e69ae2de0f6cf3a75b",
	"tsp/exact/report":                  "d48810fa17cdcd5e9f5966de0a9e7091b09da46111a9435d5e22e42a5b3acc1d",
	"tsp/exact/statreport":              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"tsp/exact/stats":                   "de792980aba8fdf57c39bee4c9aa4e4fdd4144987decefa90b80cda35cbca32b",
	"tsp/statistical/report":            "d0bfbe8ac563164275512e32c9c874dbe5be48ed657872b72379fcd7a626da07",
	"tsp/statistical/statreport":        "ec1d6d2f1f7bec6bcc66941d467fdaa83b8fc9e1e0acb0874539f66733ca529e",
	"tsp/statistical/stats":             "17a66a47f6660f0fd3335a7f167ea7cfe26e22c70ce72937669b9e825823dc02",
}

func goldenCheck(t *testing.T, key string, text []byte) {
	t.Helper()
	sum := sha256.Sum256(text)
	got := hex.EncodeToString(sum[:])
	if want := goldenDigests[key]; got != want {
		t.Errorf("%s: digest changed\n\t%q: %q,", key, key, got)
	}
}

// TestGoldenDigests covers the profiled report with legality verdicts
// attached, the machine statistics and the statistical error report, on
// both sides of the engine selection.
func TestGoldenDigests(t *testing.T) {
	names := append(append([]string(nil), workloads.PaperOrder...), "escape", "falseshare", "mislaid")
	forEachEngineSelection(t, func(t *testing.T) {
		for _, name := range names {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range goldenModes {
				opt := structslim.Options{SamplePeriod: 3000, Seed: 7}
				mode.set(&opt)
				p, phases, err := w.Build(nil, workloads.ScaleTest)
				if err != nil {
					t.Fatal(err)
				}
				res, rep, err := structslim.ProfileAndAnalyze(p, phases, opt)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, mode.name, err)
				}
				if _, err := structslim.AttachLegality(rep, p); err != nil {
					t.Fatalf("%s/%s: %v", name, mode.name, err)
				}
				var report, stat bytes.Buffer
				rep.RenderText(&report)
				if res.Stat != nil {
					res.Stat.RenderText(&stat)
				}
				prefix := name + "/" + mode.name + "/"
				goldenCheck(t, prefix+"report", report.Bytes())
				goldenCheck(t, prefix+"stats", []byte(fmt.Sprintf("%+v", res.Stats)))
				goldenCheck(t, prefix+"statreport", stat.Bytes())
			}
		}
	})
}

// TestGoldenOptimizerDigest covers the optimizer's ranked table on the
// mislaid fixture.
func TestGoldenOptimizerDigest(t *testing.T) {
	w, err := workloads.Get("mislaid")
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimize.Run(w, optimize.Options{Scale: workloads.ScaleTest, SamplePeriod: 3000, Seed: 7, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.RenderText(&buf)
	goldenCheck(t, "mislaid/exact/optimize", buf.Bytes())
}
