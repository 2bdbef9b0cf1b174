package workloads_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/structslim"
)

func testOptions() structslim.Options {
	return structslim.Options{
		SamplePeriod: 2000,
		Seed:         11,
		Analysis:     core.Options{TopK: 3},
	}
}

// analyzeWorkload profiles the AoS build and returns the report plus the
// run result.
func analyzeWorkload(t *testing.T, w workloads.Workload) (*structslim.RunResult, *core.Report) {
	t.Helper()
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatalf("build %s: %v", w.Name(), err)
	}
	res, rep, err := structslim.ProfileAndAnalyze(p, phases, testOptions())
	if err != nil {
		t.Fatalf("profile %s: %v", w.Name(), err)
	}
	return res, rep
}

// hotStruct finds the workload's record in the report.
func hotStruct(t *testing.T, w workloads.Workload, rep *core.Report) *core.StructReport {
	t.Helper()
	sr := structslim.FindStruct(rep, w.Record().Name)
	if sr == nil {
		var got []string
		for _, s := range rep.Structures {
			got = append(got, fmt.Sprintf("%s(%s)", s.Name, s.TypeName))
		}
		t.Fatalf("%s: record %s not among analyzed structures %v", w.Name(), w.Record().Name, got)
	}
	return sr
}

// groupOf returns the advised group containing the field, as a sorted
// comma-joined string.
func groupOf(t *testing.T, sr *core.StructReport, field string) string {
	t.Helper()
	if sr.Advice == nil {
		t.Fatalf("no advice for %s", sr.Name)
	}
	for _, g := range sr.Advice.Groups {
		for _, f := range g {
			if f == field {
				sorted := append([]string(nil), g...)
				sort.Strings(sorted)
				return strings.Join(sorted, ",")
			}
		}
	}
	t.Fatalf("field %s not in any advised group of %s: %v", field, sr.Name, sr.Advice.Groups)
	return ""
}

// measureSpeedup builds and times AoS vs the advised split layout.
func measureSpeedup(t *testing.T, w workloads.Workload, sr *core.StructReport) (speedup float64, l1Reduction float64) {
	t.Helper()
	layout, err := structslim.Optimize(w.Record(), sr)
	if err != nil {
		t.Fatalf("%s: optimize: %v", w.Name(), err)
	}
	if !layout.IsSplit() {
		t.Fatalf("%s: advice did not split anything: %v", w.Name(), layout)
	}
	opt := testOptions()
	base := runOnce(t, w, nil, opt)
	improved := runOnce(t, w, layout, opt)
	speedup = float64(base.AppWallCycles) / float64(improved.AppWallCycles)
	bm := base.Cache.Level("L1").Misses
	im := improved.Cache.Level("L1").Misses
	if bm > 0 {
		l1Reduction = 100 * (float64(bm) - float64(im)) / float64(bm)
	}
	return speedup, l1Reduction
}

func runOnce(t *testing.T, w workloads.Workload, l *prog.PhysLayout, opt structslim.Options) vm.Stats {
	t.Helper()
	p, phases, err := w.Build(l, workloads.ScaleTest)
	if err != nil {
		t.Fatalf("build %s: %v", w.Name(), err)
	}
	st, err := structslim.Run(p, phases, opt)
	if err != nil {
		t.Fatalf("run %s: %v", w.Name(), err)
	}
	return st
}

func TestRegistry(t *testing.T) {
	if len(workloads.Paper()) != 7 {
		t.Fatalf("paper workloads = %d, want 7", len(workloads.Paper()))
	}
	for i, w := range workloads.Paper() {
		if w == nil {
			t.Fatalf("paper workload %s not registered", workloads.PaperOrder[i])
		}
		if w.Name() != workloads.PaperOrder[i] {
			t.Errorf("paper order mismatch: %s vs %s", w.Name(), workloads.PaperOrder[i])
		}
		if w.Description() == "" || w.Suite() == "" {
			t.Errorf("%s: missing metadata", w.Name())
		}
	}
	// Parallel is true exactly when some phase runs more than one thread.
	for _, w := range workloads.All() {
		_, phases, err := w.Build(nil, workloads.ScaleTest)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		multi := false
		for _, ph := range phases {
			multi = multi || len(ph) > 1
		}
		if w.Parallel() != multi {
			t.Errorf("%s: Parallel() = %v, multi-thread phase = %v", w.Name(), w.Parallel(), multi)
		}
	}
	if _, err := workloads.Get("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	w, err := workloads.Get("art")
	if err != nil || w.Name() != "art" {
		t.Errorf("Get(art) = %v, %v", w, err)
	}
	names := workloads.Names()
	if !sort.StringsAreSorted(names) {
		t.Error("Names not sorted")
	}
}

func TestRejectsForeignLayout(t *testing.T) {
	w, _ := workloads.Get("art")
	wrong := prog.AoS(prog.MustRecord("other", prog.Field{Name: "z", Size: 8}))
	if _, _, err := w.Build(wrong, workloads.ScaleTest); err == nil {
		t.Error("foreign layout accepted")
	}
}

// expectation describes the paper-shaped outcome for one benchmark.
type expectation struct {
	name string
	// hotGroup is a field and the exact advised group it must land in.
	hotField string
	hotGroup string
	// apart lists fields that must NOT share the hot field's group.
	apart []string
	// trueSize is the record's byte size; inferredMultiple allows the
	// inferred size to be a multiple (heap padding).
	trueSize int
	// minSpeedup is the conservative lower bound at test scale.
	minSpeedup float64
}

var paperExpectations = []expectation{
	{name: "art", hotField: "P", hotGroup: "P", apart: []string{"I", "U", "X", "Q", "R"}, trueSize: 64, minSpeedup: 1.10},
	{name: "libquantum", hotField: "state", hotGroup: "state", apart: []string{"amplitude"}, trueSize: 24, minSpeedup: 1.02},
	{name: "tsp", hotField: "next", hotGroup: "next,x,y", apart: []string{"sz", "left", "right", "prev"}, trueSize: 56, minSpeedup: 1.02},
	{name: "mser", hotField: "parent", hotGroup: "parent", apart: []string{"shortcut", "region", "area"}, trueSize: 16, minSpeedup: 1.00},
	{name: "clomp", hotField: "value", hotGroup: "nextZone,value", apart: []string{"zoneId", "partId"}, trueSize: 24, minSpeedup: 1.03},
	{name: "health", hotField: "forward", hotGroup: "forward", apart: []string{"id", "seconds", "time", "hosps_visited", "home_village", "back"}, trueSize: 40, minSpeedup: 1.03},
	{name: "nn", hotField: "dist", hotGroup: "dist", apart: []string{"entry"}, trueSize: 64, minSpeedup: 1.10},
}

func TestPaperWorkloadsEndToEnd(t *testing.T) {
	for _, exp := range paperExpectations {
		exp := exp
		t.Run(exp.name, func(t *testing.T) {
			w, err := workloads.Get(exp.name)
			if err != nil {
				t.Fatal(err)
			}
			res, rep := analyzeWorkload(t, w)
			if res.Profile.NumSamples < 50 {
				t.Fatalf("too few samples: %d", res.Profile.NumSamples)
			}
			sr := hotStruct(t, w, rep)

			// Structure size: exact, or a multiple for padded heap nodes.
			if sr.TrueSize != exp.trueSize {
				t.Errorf("true size = %d, want %d", sr.TrueSize, exp.trueSize)
			}
			if sr.InferredSize == 0 || sr.InferredSize%uint64(exp.trueSize) != 0 {
				if exp.name == "tsp" {
					// Heap padding rounds 56 to 64; accept any multiple
					// of the allocator alignment covering the record.
					if sr.InferredSize < uint64(exp.trueSize) || sr.InferredSize%16 != 0 {
						t.Errorf("inferred size = %d, want padded multiple ≥ %d", sr.InferredSize, exp.trueSize)
					}
				} else {
					t.Errorf("inferred size = %d, want multiple of %d", sr.InferredSize, exp.trueSize)
				}
			}

			// Advice shape.
			got := groupOf(t, sr, exp.hotField)
			if got != exp.hotGroup {
				t.Errorf("group of %s = {%s}, want {%s}", exp.hotField, got, exp.hotGroup)
			}
			for _, f := range exp.apart {
				if strings.Contains(","+got+",", ","+f+",") {
					t.Errorf("field %s must not share a struct with %s", f, exp.hotField)
				}
			}

			// The split must pay off.
			speedup, l1red := measureSpeedup(t, w, sr)
			t.Logf("%s: speedup %.3f×, L1 miss reduction %.1f%%, overhead %.2f%%, samples %d, inferred size %d",
				exp.name, speedup, l1red, res.Stats.OverheadPct(), res.Profile.NumSamples, sr.InferredSize)
			if speedup < exp.minSpeedup {
				t.Errorf("speedup = %.3f×, want ≥ %.2f×", speedup, exp.minSpeedup)
			}
		})
	}
}

// TestParallelWorkloadsUseFourThreads checks the parallel benchmarks
// profile per thread and merge.
func TestParallelWorkloadsUseFourThreads(t *testing.T) {
	for _, name := range []string{"clomp", "health", "nn"} {
		w, _ := workloads.Get(name)
		res, _ := analyzeWorkload(t, w)
		if len(res.ThreadProfiles) != 4 {
			t.Errorf("%s: thread profiles = %d, want 4", name, len(res.ThreadProfiles))
		}
		if res.Profile.Threads != 4 {
			t.Errorf("%s: merged thread count = %d", name, res.Profile.Threads)
		}
		// More than one thread must actually have sampled something.
		active := 0
		for _, tp := range res.ThreadProfiles {
			if tp.NumSamples > 0 {
				active++
			}
		}
		if active < 2 {
			t.Errorf("%s: only %d threads sampled", name, active)
		}
	}
}

// TestParseScale: the two scale names parse and round-trip through
// String; anything else, including a different case or a typo, is
// rejected with an error naming both valid values.
func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want workloads.Scale
		ok   bool
	}{
		{"test", workloads.ScaleTest, true},
		{"bench", workloads.ScaleBench, true},
		{"", 0, false},
		{"Bench", 0, false},
		{"bnech", 0, false},
	} {
		got, err := workloads.ParseScale(tc.in)
		if !tc.ok {
			if err == nil {
				t.Errorf("ParseScale(%q) = %v, want an error", tc.in, got)
			} else if msg := err.Error(); !strings.Contains(msg, "test") || !strings.Contains(msg, "bench") {
				t.Errorf("ParseScale(%q) error %q does not name test and bench", tc.in, msg)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if s := got.String(); s != tc.in {
			t.Errorf("ParseScale(%q).String() = %q, want a round trip", tc.in, s)
		}
	}
}
