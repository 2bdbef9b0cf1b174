package progfuzz

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/legality"
	"repro/internal/sharing"
	"repro/internal/staticlint"
	"repro/structslim"
)

// FuzzResolver holds the symbolic address resolver to the profiler: on
// any generated program AnalyzeProgram must not panic, and every exact
// static stride must divide the dynamic GCD of the profiled stream at its
// IP. The deltas the profiler sees are integer combinations of the loop
// coefficients the resolver found.
func FuzzResolver(f *testing.F) {
	addSeeds(f, resolverSeeds)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, phases := gen(data, false)
		if p == nil {
			return
		}
		a, err := staticlint.AnalyzeProgram(p)
		if err != nil {
			t.Fatalf("AnalyzeProgram: %v", err)
		}
		res, err := structslim.ProfileRun(p, phases, structslim.Options{SamplePeriod: 20, Seed: 3})
		if err != nil {
			t.Fatalf("ProfileRun: %v", err)
		}
		for key, stat := range res.Profile.Streams {
			sp := a.StreamAt(key.IP)
			if sp == nil || sp.Confidence != staticlint.Exact {
				continue
			}
			if sp.Stride == 0 {
				if stat.GCD != 0 {
					t.Fatalf("IP %#x: static stride 0 but dynamic GCD %d", key.IP, stat.GCD)
				}
				continue
			}
			if stat.GCD%sp.Stride != 0 {
				t.Fatalf("IP %#x: static stride %d does not divide dynamic GCD %d",
					key.IP, sp.Stride, stat.GCD)
			}
		}
	})
}

// FuzzReusePredictor holds the static reuse predictor to its books: on
// any generated program PredictReuse must not panic, and every histogram
// it emits, per nest, per object and per member loop, must conserve mass
// (Σ buckets + cold == N), with each level's misses between the cold
// count and N. Skipping a nest is always legal; lying about one is not.
func FuzzReusePredictor(f *testing.F) {
	addSeeds(f, resolverSeeds)
	cfg := cache.DefaultConfig()
	cfg.Prefetch = false
	f.Fuzz(func(t *testing.T, data []byte) {
		p, _ := gen(data, false)
		if p == nil {
			return
		}
		a, err := staticlint.AnalyzeProgram(p)
		if err != nil {
			t.Fatalf("AnalyzeProgram: %v", err)
		}
		rp := staticlint.PredictReuse(a, cfg)
		checkMass := func(what string, h staticlint.ReuseHist, misses []uint64) {
			if got := h.Mass(); got != h.N {
				t.Fatalf("%s: mass %d != N %d (cold %d)", what, got, h.N, h.Cold)
			}
			for l, m := range misses {
				if m > h.N {
					t.Fatalf("%s: level %d misses %d exceed N %d", what, l, m, h.N)
				}
				if m < h.Cold {
					t.Fatalf("%s: level %d misses %d below cold %d", what, l, m, h.Cold)
				}
			}
		}
		for _, np := range rp.Nests {
			checkMass("nest", np.Total, np.Misses)
			if np.Total.N != np.Accesses {
				t.Fatalf("nest N %d != Accesses %d", np.Total.N, np.Accesses)
			}
			var objN, loopN uint64
			for _, obj := range np.Objects {
				checkMass("object "+obj.Name, obj.Hist, obj.Misses)
				objN += obj.Hist.N
			}
			for _, lr := range np.Loops {
				checkMass("loop", lr.Hist, lr.Misses)
				loopN += lr.Hist.N
			}
			if objN != np.Accesses || loopN != np.Accesses {
				t.Fatalf("attribution leak: objects %d, loops %d, nest %d", objN, loopN, np.Accesses)
			}
		}
	})
}

// FuzzLegality holds the legality pass to three properties: it never
// panics or errors, two independent build, analyze and render cycles are
// byte-identical, and, the soundness gate, replaying the phases under the
// cross-check observer never contradicts a SplitSafe or KeepTogether
// claim.
func FuzzLegality(f *testing.F) {
	addSeeds(f, legalitySeeds)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, phases := gen(data, false)
		if p == nil {
			return
		}
		a, err := legality.AnalyzeProgram(p, nil)
		if err != nil {
			t.Fatalf("AnalyzeProgram: %v", err)
		}
		var r1, r2 bytes.Buffer
		a.RenderText(&r1)
		p2, _ := gen(data, false)
		a2, err := legality.AnalyzeProgram(p2, nil)
		if err != nil {
			t.Fatalf("AnalyzeProgram (rebuild): %v", err)
		}
		a2.RenderText(&r2)
		if !bytes.Equal(r1.Bytes(), r2.Bytes()) {
			t.Fatalf("verdicts not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", r1.String(), r2.String())
		}
		rep, err := legality.CrossCheck(a, cache.DefaultConfig(), phases)
		if err != nil {
			t.Fatalf("CrossCheck: %v", err)
		}
		if rep.Failed() {
			var buf bytes.Buffer
			rep.RenderText(&buf)
			t.Fatalf("soundness violation on input %v:\n%s\n%s", data, r1.String(), buf.String())
		}
	})
}

// FuzzSharingClassifier holds the sharing analysis to three properties:
//
//  1. Analyze never panics or errors;
//  2. soundness: the coherence observer of an actual run contradicts no
//     exact claim;
//  3. monotonicity: demoting every store to a load, which only removes
//     write evidence, never raises the class of an exact claim in the
//     evidence order private < read-shared < write-shared.
func FuzzSharingClassifier(f *testing.F) {
	addSeeds(f, sharingSeeds)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, phases := gen(data, false)
		if p == nil {
			return
		}
		a, err := sharing.Analyze(p, phases, 64)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		obs, err := sharing.VerifyRun(p, phases, cache.DefaultConfig())
		if err != nil {
			t.Fatalf("VerifyRun: %v", err)
		}
		if rep := sharing.CrossCheck(a, obs); rep.Failed() {
			for _, cc := range rep.Claims {
				if cc.Status == sharing.CheckMismatch {
					c := cc.Claim
					t.Errorf("unsound claim %s.%s %s/%s: %s", c.ObjName, c.FieldName, c.Class, c.Conf, cc.Detail)
				}
			}
			t.Fatalf("%d exact claim(s) contradicted by the coherence observer", rep.Mismatches)
		}

		pd, pdPhases := gen(data, true)
		if pd == nil {
			t.Fatal("store-demoted twin rejected but original accepted")
		}
		ad, err := sharing.Analyze(pd, pdPhases, 64)
		if err != nil {
			t.Fatalf("Analyze demoted twin: %v", err)
		}
		for _, c := range a.Claims {
			if c.Conf != sharing.Exact {
				continue // hint classes may legitimately move either way
			}
			cd := ad.FindClaim(c.Role.Phase, c.Global, c.Field)
			if cd == nil {
				continue // the bucket may dissolve (e.g. merged into whole-object)
			}
			if cd.Class.Rank() > c.Class.Rank() {
				t.Fatalf("removing writes raised %s.%s from %s to %s", c.ObjName, c.FieldName, c.Class, cd.Class)
			}
		}
	})
}
