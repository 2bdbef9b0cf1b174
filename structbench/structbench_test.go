package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/optimize"
	"repro/structslim"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	// descending(n) is n, n-1, ..., 1, so tail has to sort before it picks.
	descending := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{1, 1},
		{10, 10},    // no value has ten beyond it: the largest
		{11, 1},     // only the smallest has ten beyond it
		{12, 2},     // the highest value with exactly ten beyond it
		{1000, 990}, // the 99th percentile
	} {
		if got := tail(descending(c.n)); got != c.want {
			t.Errorf("tail of %d values = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Op: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "post", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "post", Start: 30, End: 60},  // concurrent with the first
		{ID: 4, Parent: 1, Op: 1, Name: "read", Start: 90, End: 120}, // runs past its parent
	}
	got := make(map[string]time.Duration)
	for _, r := range tr.selfTimes() {
		got[r.name] = r.self
	}
	for name, want := range map[string]time.Duration{"pass": 40, "post": 60, "read": 30} {
		if got[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, got[name], want)
		}
	}
}

func TestAdviceOracleRejectsWrongExpectations(t *testing.T) {
	programs, err := buildPrograms([]string{"art"})
	if err != nil {
		t.Fatal(err)
	}
	pg := programs[0]
	_, rep, err := structslim.ProfileAndAnalyze(pg.p, pg.phases, structslim.Options{SamplePeriod: paperPeriod, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	record := pg.w.Record().Name
	if err := checkAdvice(rep, record, paperGroups["art"]); err != nil {
		t.Fatalf("the paper's own group was rejected: %v", err)
	}
	for _, wrong := range []paperGroup{
		{"P", []string{"I", "P"}},      // one field too many
		{"P", nil},                     // one field too few
		{"nosuch", []string{"nosuch"}}, // a field the record does not have
	} {
		if checkAdvice(rep, record, wrong) == nil {
			t.Errorf("wrong expectation %v was accepted", wrong)
		}
	}
	if checkAdvice(rep, "nosuch", paperGroups["art"]) == nil {
		t.Error("a record the report does not analyze was accepted")
	}
}

func TestReportOracleRejectsWrongExpectations(t *testing.T) {
	b := &ingestReport{}
	if err := b.setup(1); err != nil {
		t.Fatal(err)
	}
	pass := func() tally {
		var tl tally
		if err := b.round(nil, &tl); err != nil {
			t.Fatal(err)
		}
		return tl
	}
	if tl := pass(); tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("correct expectations: %d of %d checks failed: %v", tl.failed, tl.attempted, tl.failures)
	}
	want := b.want
	b.want = append(slices.Clone(want), '\n')
	if tl := pass(); tl.failed != 1 {
		t.Errorf("a report one byte longer than the server's: %d failures, want 1", tl.failed)
	}
	b.want = want
	b.wantGroups = [][]string{{"back", "forward"}}
	if tl := pass(); tl.failed != 1 {
		t.Errorf("wrong advice groups: %d failures, want 1", tl.failed)
	}
}

func TestSelectionOracleRejectsLosingSelections(t *testing.T) {
	for _, c := range []struct {
		name string
		r    optimize.Result
		ok   bool
	}{
		{"beats the original and the advice", optimize.Result{ExactBaseline: 100, ExactAdvice: 90, ExactSelected: 80}, true},
		{"no advice candidate", optimize.Result{ExactBaseline: 100, ExactSelected: 100}, true},
		{"slower than the original", optimize.Result{ExactBaseline: 100, ExactSelected: 101}, false},
		{"slower than the advice", optimize.Result{ExactBaseline: 100, ExactAdvice: 90, ExactSelected: 95}, false},
		{"never confirmed", optimize.Result{ExactBaseline: 100}, false},
	} {
		if err := checkSelection(&c.r); (err == nil) != c.ok {
			t.Errorf("%s: checkSelection = %v", c.name, err)
		}
	}
}

func TestCacheReplayMatchesMachine(t *testing.T) {
	programs, err := buildPrograms([]string{"art", "health"})
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range programs {
		st, err := structslim.Run(pg.p, pg.phases, structslim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var first replay
		for i := 0; i < 2; i++ {
			rp, err := replayCache(pg.p, pg.phases)
			if err != nil {
				t.Fatal(err)
			}
			if !rp.matches(st.Cache) || rp.accesses != st.MemOps {
				t.Errorf("%s: the replay counted %d accesses, %v; the machine %d, %v",
					pg.w.Name(), rp.accesses, rp.levels, st.MemOps, st.Cache.Levels)
			}
			if i == 0 {
				first = rp
			} else if rp.misses != first.misses {
				t.Errorf("%s: replay misses %v, then %v", pg.w.Name(), first.misses, rp.misses)
			}
		}
	}
}

func TestSimulatedOutputsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two optimizer sweeps")
	}
	var sims [2][]simCounts
	var geomeans [2]float64
	for i := range sims {
		pa, osel := &profileAdvice{}, &optimizeSelect{}
		for _, wl := range []workload{pa, osel} {
			if err := wl.setup(1); err != nil {
				t.Fatal(err)
			}
			var tl tally
			if err := wl.round(nil, &tl); err != nil {
				t.Fatal(err)
			}
			if tl.failed != 0 {
				t.Fatalf("%d checks failed: %v", tl.failed, tl.failures)
			}
		}
		sims[i], geomeans[i] = pa.sim, osel.geomean
	}
	if !slices.Equal(sims[0], sims[1]) {
		t.Errorf("simulated counts differ between two runs at seed 1:\n%v\n%v", sims[0], sims[1])
	}
	if geomeans[0] != geomeans[1] {
		t.Errorf("geomean selected speedup %v, then %v", geomeans[0], geomeans[1])
	}
	// The optimizer at test scale, period 2000 and seed 1 selects layouts
	// whose geomean exact-confirmed speedup is 1.525.
	if math.Abs(geomeans[0]-1.525) > 0.0005 {
		t.Errorf("geomean selected speedup = %.4f, want 1.525", geomeans[0])
	}
}

func TestSecondSeedPassesEveryOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a round of every workload")
	}
	for _, name := range []string{"profile-advice", "ingest-report", "optimize-select"} {
		wl, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := wl.setup(2); err != nil {
			t.Fatal(err)
		}
		var tl tally
		if err := wl.round(nil, &tl); err != nil {
			t.Fatal(err)
		}
		if tl.failed != 0 || tl.attempted == 0 {
			t.Errorf("%s at seed 2: %d of %d checks failed: %v", name, tl.failed, tl.attempted, tl.failures)
		}
	}
}
