package structslim

// White-box tests of the facade's option plumbing and phase handling.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/pebs"
	"repro/internal/prog"
	"repro/internal/vm"
)

func TestSamplerConfigPlumbing(t *testing.T) {
	c := Options{}.samplerConfig()
	if c.Period != pebs.DefaultConfig().Period || c.Mode != pebs.ModePEBSLL || !c.Randomize {
		t.Errorf("defaults wrong: %+v", c)
	}
	c = Options{SamplePeriod: 123, IBS: true, Seed: 9}.samplerConfig()
	if c.Period != 123 || c.Mode != pebs.ModeIBS || c.Seed != 9 {
		t.Errorf("plumbing wrong: %+v", c)
	}
}

func TestCacheConfigPlumbing(t *testing.T) {
	if got := (Options{}).cacheConfig(); got.LineSize != cache.DefaultConfig().LineSize {
		t.Error("default cache config not used")
	}
	custom := cache.DefaultConfig()
	custom.MemLatency = 999
	if got := (Options{Cache: &custom}).cacheConfig(); got.MemLatency != 999 {
		t.Error("custom cache config ignored")
	}
}

// TestCoresFor: Run and ProfileRun size the machine with vm.CoresFor,
// the largest pinned core plus one, and one core for no phases.
func TestCoresFor(t *testing.T) {
	phases := []Phase{
		{vm.ThreadSpec{Core: 0}, vm.ThreadSpec{Core: 3}},
		{vm.ThreadSpec{Core: 1}},
	}
	if got := vm.CoresFor(phases); got != 4 {
		t.Errorf("CoresFor = %d, want 4", got)
	}
	if got := vm.CoresFor(nil); got != 1 {
		t.Errorf("empty phases = %d, want 1", got)
	}
}

func TestMaxThreads(t *testing.T) {
	phases := []Phase{
		{vm.ThreadSpec{}},
		{vm.ThreadSpec{}, vm.ThreadSpec{}, vm.ThreadSpec{}},
	}
	if got := maxThreads(phases); got != 3 {
		t.Errorf("maxThreads = %d, want 3", got)
	}
	if got := maxThreads(nil); got != 1 {
		t.Errorf("maxThreads(nil) = %d, want 1", got)
	}
}

// tinyProgram is a minimal two-phase program for phase accounting tests.
func tinyProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("tiny")
	g := b.Global("a", 4096, -1)
	b.Func("phase1", "t.c")
	base, i := b.R(), b.R()
	b.GAddr(base, g)
	b.ForRange(i, 0, 100, 1, func() {
		b.Store(i, base, i, 8, 0, 8)
	})
	b.Halt()
	b.Func("phase2", "t.c")
	base2, j, w := b.R(), b.R(), b.R()
	b.GAddr(base2, g)
	b.ForRange(j, 0, 100, 1, func() {
		b.Load(w, base2, j, 8, 0, 8)
	})
	b.Halt()
	return b.MustProgram()
}

func TestRunPhasesAccumulates(t *testing.T) {
	p := tinyProgram(t)
	one, err := Run(p, []Phase{{vm.ThreadSpec{Fn: 0}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Run(p, []Phase{{vm.ThreadSpec{Fn: 0}}, {vm.ThreadSpec{Fn: 1}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if both.Instrs <= one.Instrs || both.WallCycles <= one.WallCycles {
		t.Errorf("phase accumulation lost work: one=%+v both=%+v", one.Instrs, both.Instrs)
	}
	if both.MemOps != 200 {
		t.Errorf("memops = %d, want 200", both.MemOps)
	}
	if len(both.PerThread) == 0 {
		t.Error("per-thread stats missing")
	}
}

func TestProfileRunDeterministic(t *testing.T) {
	run := func() uint64 {
		p := tinyProgram(t)
		res, err := ProfileRun(p, []Phase{{vm.ThreadSpec{Fn: 0}}, {vm.ThreadSpec{Fn: 1}}},
			Options{SamplePeriod: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Profile.NumSamples*1_000_000 + res.Stats.WallCycles
	}
	if run() != run() {
		t.Error("profiled runs are not deterministic")
	}
}

func TestIBSOptionChangesSampling(t *testing.T) {
	// In expectation IBS and PEBS-LL yield the *same* address-sample
	// count at equal periods — instrs/period × memop-density equals
	// memops/period — the semantic difference is which accesses are
	// picked and that IBS tags landing on non-memory ops are lost. So
	// assert both modes sample, with counts in the same ballpark.
	collect := func(ibs bool) uint64 {
		p := tinyProgram(t)
		res, err := ProfileRun(p, nil, Options{SamplePeriod: 16, Seed: 3, IBS: ibs})
		if err != nil {
			t.Fatal(err)
		}
		return res.Profile.NumSamples
	}
	pebsN := collect(false)
	ibsN := collect(true)
	if pebsN == 0 || ibsN == 0 {
		t.Fatalf("a mode produced no samples: pebs=%d ibs=%d", pebsN, ibsN)
	}
	if ibsN > pebsN*4 || pebsN > ibsN*4 {
		t.Errorf("sample counts wildly different: pebs=%d ibs=%d", pebsN, ibsN)
	}
}

func TestOptimizeNilReport(t *testing.T) {
	rec := prog.MustRecord("r", prog.Field{Name: "a", Size: 8})
	if _, err := Optimize(rec, nil); err == nil {
		t.Error("nil struct report accepted")
	}
}

func TestRunRejectsBadPhases(t *testing.T) {
	p := tinyProgram(t)
	if _, err := Run(p, []Phase{{vm.ThreadSpec{Fn: 99}}}, Options{}); err == nil {
		t.Error("bad function accepted")
	}
}
