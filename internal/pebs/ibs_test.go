package pebs

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// driveInstrs feeds accesses whose Instrs counter advances by
// instrsPerAccess each time, modeling a given memory-op density.
func driveInstrs(s *Sampler, n int, instrsPerAccess uint64) {
	var instrs uint64
	for i := 0; i < n; i++ {
		instrs += instrsPerAccess
		ev := vm.MemEvent{
			TID: 0, IP: 0x400100, EA: mem.StaticBase + uint64(i)*8,
			Latency: 10, Level: 1, Cycle: uint64(i * 10), Instrs: instrs,
		}
		s.OnAccess(&ev)
	}
}

func ibsConfig(period uint64) Config {
	c := DefaultConfig()
	c.Mode = ModeIBS
	c.Period = period
	c.Randomize = false
	return c
}

func TestIBSDenseMemoryCode(t *testing.T) {
	// Every instruction is a memory access: every tag converts, so the
	// sample rate matches PEBS-LL's.
	space := mem.NewSpace()
	space.AllocStatic("arr", 1<<20, -1, 0)
	s := NewSampler(ibsConfig(100), space, 1)
	driveInstrs(s, 10_000, 1)
	if got := s.Profiles()[0].NumSamples; got != 100 {
		t.Errorf("samples = %d, want 100", got)
	}
}

func TestIBSSparseMemoryCodeLosesTags(t *testing.T) {
	// One memory access per 10 instructions: ~90% of tags land on
	// non-memory ops and are dropped, unlike PEBS-LL which always
	// periods off memory accesses.
	space := mem.NewSpace()
	space.AllocStatic("arr", 1<<20, -1, 0)

	ibs := NewSampler(ibsConfig(100), space, 1)
	driveInstrs(ibs, 10_000, 10) // 100k instructions total
	ibsSamples := ibs.Profiles()[0].NumSamples

	pebs := NewSampler(fixedConfig(100), space, 1)
	driveInstrs(pebs, 10_000, 10)
	pebsSamples := pebs.Profiles()[0].NumSamples

	if pebsSamples != 100 {
		t.Fatalf("pebs samples = %d, want 100", pebsSamples)
	}
	// IBS fires 1000 tags over 100k instructions; ~10% hit the memory
	// op (every 10th instruction) — expect ≈100 too, BUT only when the
	// access pattern aligns. With instrs advancing by exactly 10 and
	// period 100, tags at multiples of 100 always align. Use a
	// misaligned period to expose tag loss.
	misaligned := NewSampler(ibsConfig(103), space, 1)
	driveInstrs(misaligned, 10_000, 10)
	lost := misaligned.Profiles()[0].NumSamples
	if lost >= ibsSamples {
		t.Errorf("misaligned IBS should lose tags: %d vs %d", lost, ibsSamples)
	}
	if lost == 0 {
		t.Error("misaligned IBS lost every tag; expected ~1 in 10 to hit memory ops")
	}
	_ = ibsSamples
}

func TestIBSModeString(t *testing.T) {
	if ModeIBS.String() != "ibs" || ModePEBSLL.String() != "pebs-ll" {
		t.Error("mode strings wrong")
	}
}

func TestIBSDeterministicWithRandomization(t *testing.T) {
	run := func() uint64 {
		space := mem.NewSpace()
		space.AllocStatic("arr", 1<<20, -1, 0)
		cfg := ibsConfig(64)
		cfg.Randomize = true
		cfg.Seed = 9
		s := NewSampler(cfg, space, 1)
		driveInstrs(s, 50_000, 3)
		return s.Profiles()[0].NumSamples
	}
	if run() != run() {
		t.Error("IBS sampling not deterministic per seed")
	}
}

// TestIBSSamplesLaterPhases profiles health's init and parallel phases
// in IBS mode. Every parallel-phase thread must be sampled at its
// siblings' rate: a slot's tag countdown carries into a later phase the
// way PEBS-LL's access countdown does, rather than waiting until the
// slot has retired as many instructions as it did in the phase before.
func TestIBSSamplesLaterPhases(t *testing.T) {
	w, err := workloads.Get("health")
	if err != nil {
		t.Fatal(err)
	}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	last := phases[len(phases)-1]
	m, err := vm.NewMachine(p, cache.DefaultConfig(), len(last), vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeIBS
	cfg.Period = 3000
	s := NewSampler(cfg, m.Space, len(last))
	m.Observer = s
	if _, err := m.RunAll(phases[:len(phases)-1]); err != nil {
		t.Fatal(err)
	}
	before := make([]uint64, len(last))
	for i, tp := range s.Profiles() {
		before[i] = tp.NumSamples
	}
	if _, err := m.Run(last); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(last))
	for i, tp := range s.Profiles() {
		got[i] = float64(tp.NumSamples - before[i])
	}
	for i, n := range got {
		var siblings float64
		for j, o := range got {
			if j != i {
				siblings += o
			}
		}
		mean := siblings / float64(len(got)-1)
		if mean == 0 || math.Abs(n-mean) > 0.3*mean {
			t.Errorf("parallel-phase thread %d: %.0f samples, siblings' mean %.1f (all %v)", i, n, mean, got)
		}
	}
}
