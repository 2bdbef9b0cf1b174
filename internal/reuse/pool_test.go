package reuse

import (
	"math/rand"
	"testing"
)

// TestGrowthAcrossCapacityBoundary drives an analyzer well past its
// pre-sized Fenwick capacity and checks every distance against a naive
// LRU stack, so the grow() rebuild is exercised across the boundary
// (capacity 16 → 32 → 64 → ...).
func TestGrowthAcrossCapacityBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := NewAnalyzer(0) // min capacity 16
	if len(a.bit) != 17 {
		t.Fatalf("pre-sized bit len = %d, want 17", len(a.bit))
	}
	var stack []uint64
	for i := 0; i < 300; i++ {
		line := uint64(rng.Intn(40))
		got := a.Observe(line)
		want := Infinite
		for pos, l := range stack {
			if l == line {
				want = uint64(pos)
				stack = append(stack[:pos], stack[pos+1:]...)
				break
			}
		}
		stack = append([]uint64{line}, stack...)
		if got != want {
			t.Fatalf("access %d (line %d): distance %d, naive %d", i, line, got, want)
		}
		// The boundary crossings of interest: observation 16, 32, 64...
		if i == 16 && len(a.bit) <= 17 {
			t.Fatalf("tree did not grow past the pre-sized capacity")
		}
	}
	if a.N != 300 {
		t.Errorf("N = %d", a.N)
	}
}

// TestInfiniteFirstTouchBucket: first touches must land in Cold, never in
// a histogram bucket — including after Reset, and regardless of growth.
func TestInfiniteFirstTouchBucket(t *testing.T) {
	a := NewAnalyzer(4)
	for i := 0; i < 100; i++ {
		if d := a.Observe(uint64(i)); d != Infinite {
			t.Fatalf("first touch of line %d: distance %d, want Infinite", i, d)
		}
	}
	if a.Cold != 100 || a.N != 100 {
		t.Fatalf("Cold = %d, N = %d, want 100, 100", a.Cold, a.N)
	}
	var bucketed uint64
	for _, h := range a.Hist {
		bucketed += h
	}
	if bucketed != 0 {
		t.Fatalf("first touches leaked into histogram buckets: %d", bucketed)
	}
	// Every access misses at any finite capacity.
	if mr := a.MissRatioAtCapacity(1 << 20); mr != 1.0 {
		t.Fatalf("all-cold miss ratio = %v, want 1", mr)
	}
}

// TestResetReusesState: after Reset the analyzer behaves exactly like a
// fresh one (first touches are cold again), and the tree capacity is
// retained.
func TestResetReusesState(t *testing.T) {
	a := NewAnalyzer(8)
	for i := 0; i < 50; i++ {
		a.Observe(uint64(i % 7))
	}
	capBefore := len(a.bit)
	a.Reset()
	if a.N != 0 || a.Cold != 0 || a.time != 0 || len(a.lastTime) != 0 {
		t.Fatalf("Reset left state: %+v", a)
	}
	for i, h := range a.Hist {
		if h != 0 {
			t.Fatalf("Reset left Hist[%d] = %d", i, h)
		}
	}
	if len(a.bit) != capBefore {
		t.Fatalf("Reset dropped tree capacity: %d -> %d", capBefore, len(a.bit))
	}
	if d := a.Observe(3); d != Infinite {
		t.Fatalf("post-Reset first touch distance = %d, want Infinite", d)
	}
	a.Observe(3)
	if a.Hist[0] != 1 || a.Cold != 1 || a.N != 2 {
		t.Fatalf("post-Reset counters: Hist[0]=%d Cold=%d N=%d", a.Hist[0], a.Cold, a.N)
	}
}

// TestFromTraceMatchesIncremental: FromTrace over a recorded trace equals
// observing the same trace incrementally.
func TestFromTraceMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trace := make([]uint64, 5000)
	for i := range trace {
		trace[i] = uint64(rng.Intn(200))
	}
	inc := NewAnalyzer(16)
	for _, ln := range trace {
		inc.Observe(ln)
	}
	ft := FromTrace(trace)
	if ft.N != inc.N || ft.Cold != inc.Cold || ft.Hist != inc.Hist {
		t.Fatalf("FromTrace diverged from incremental observation")
	}
}
