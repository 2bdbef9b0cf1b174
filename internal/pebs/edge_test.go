package pebs

// Edge-case coverage for the AccessGap/SkipAccesses protocol: gaps that
// span a thread's termination, gaps that cross a change of the sampling
// period, and zero-length gaps. These are the corners the differential
// protocol test (gap_test.go) exercises only probabilistically, if at all.

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/vm"
)

// mkEvent returns a minimal deliverable event for thread tid over object o.
func mkEvent(tid int, o *mem.Object) vm.MemEvent {
	return vm.MemEvent{
		TID:     tid,
		IP:      0x400,
		EA:      o.Base,
		Size:    8,
		Latency: 10,
		Level:   1,
		Cycle:   1,
		Instrs:  1,
	}
}

// TestGapSpansThreadTermination models a thread that exits mid-gap: the
// machine consulted AccessGap, the thread retired only part of the
// promised budget before terminating, and the machine books the partial
// count. The sampler must emit nothing for the dead thread, keep its
// bookkeeping consistent (so a later phase reusing the TID resumes the
// same countdown), and leave other threads untouched.
func TestGapSpansThreadTermination(t *testing.T) {
	space := mem.NewSpace()
	o := space.AllocStatic("a", 4096, -1, 0)
	s := NewSampler(Config{Period: 100, InterruptCost: 1}, space, 2)

	gap0, byInstrs := s.AccessGap(0)
	if byInstrs {
		t.Fatal("PEBS mode must report access-counted gaps")
	}
	if gap0 != 99 {
		t.Fatalf("fresh thread gap = %d, want 99", gap0)
	}

	// Thread 0 retires 40 of the promised 99 free accesses, then exits.
	s.SkipAccesses(0, 40)

	if n := s.Profiles()[0].NumSamples; n != 0 {
		t.Fatalf("terminated thread recorded %d samples, want 0", n)
	}
	if gap, _ := s.AccessGap(0); gap != 59 {
		t.Fatalf("post-termination gap = %d, want 59", gap)
	}
	// Thread 1 is unaffected by thread 0's partial gap.
	if gap, _ := s.AccessGap(1); gap != 99 {
		t.Fatalf("sibling thread gap = %d, want 99", gap)
	}

	// A later phase reuses TID 0: delivery resumes the surviving
	// countdown, so the 60th access from here is the sample.
	ev := mkEvent(0, o)
	var cost uint64
	for i := 0; i < 60; i++ {
		cost += s.OnAccess(&ev)
	}
	if n := s.Profiles()[0].NumSamples; n != 1 {
		t.Fatalf("resumed thread samples = %d, want exactly 1", n)
	}
	if cost != 1+s.cfg.SharedAttribCost {
		t.Fatalf("handler cost = %d, want %d", cost, 1+s.cfg.SharedAttribCost)
	}
}

// TestGapCrossesPeriodChange re-arms with a new period mid-gap (the
// profiler lowering its rate online). The in-flight gap was drawn under
// the old period and must complete under it — hardware keeps the armed
// counter — while the next re-arm draws from the new period.
func TestGapCrossesPeriodChange(t *testing.T) {
	space := mem.NewSpace()
	o := space.AllocStatic("a", 4096, -1, 0)
	s := NewSampler(Config{Period: 50, InterruptCost: 1}, space, 1)

	// Burn 20 accesses of the armed 50-access period, then change period.
	s.SkipAccesses(0, 20)
	s.cfg.Period = 10

	// The in-flight gap still has 29 free accesses: skipping them and
	// delivering one more must fire exactly one sample.
	gap, _ := s.AccessGap(0)
	if gap != 29 {
		t.Fatalf("in-flight gap after period change = %d, want 29", gap)
	}
	s.SkipAccesses(0, gap)
	ev := mkEvent(0, o)
	if c := s.OnAccess(&ev); c == 0 {
		t.Fatal("gap-ending delivery produced no sample")
	}

	// The re-armed gap uses the new period.
	if gap, _ := s.AccessGap(0); gap != 9 {
		t.Fatalf("re-armed gap = %d, want 9 (new period)", gap)
	}
	if n := s.Profiles()[0].NumSamples; n != 1 {
		t.Fatalf("samples = %d, want 1", n)
	}
}

// TestZeroLengthGaps pins the degenerate budgets: a Period of 1 yields a
// permanent zero gap (every access sampled), and SkipAccesses(tid, 0) is
// a no-op the machine may issue at any quantum boundary.
func TestZeroLengthGaps(t *testing.T) {
	space := mem.NewSpace()
	o := space.AllocStatic("a", 4096, -1, 0)
	s := NewSampler(Config{Period: 1, InterruptCost: 1}, space, 1)

	ev := mkEvent(0, o)
	for i := 0; i < 5; i++ {
		if gap, byInstrs := s.AccessGap(0); gap != 0 || byInstrs {
			t.Fatalf("access %d: gap = %d byInstrs=%v, want 0/false", i, gap, byInstrs)
		}
		s.SkipAccesses(0, 0) // quantum boundary with nothing pending
		if c := s.OnAccess(&ev); c == 0 {
			t.Fatalf("access %d: period-1 delivery produced no sample", i)
		}
	}
	if n := s.Profiles()[0].NumSamples; n != 5 {
		t.Fatalf("samples = %d, want 5 (every access sampled)", n)
	}
}
