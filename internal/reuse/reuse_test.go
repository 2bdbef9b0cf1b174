package reuse

import (
	"math/rand"
	"testing"
)

func TestFirstTouchIsInfinite(t *testing.T) {
	a := NewAnalyzer(16)
	if d := a.Observe(1); d != Infinite {
		t.Errorf("first touch distance = %d", d)
	}
	if a.Cold != 1 || a.N != 1 {
		t.Errorf("counters: %+v", a)
	}
}

func TestImmediateReuseIsZero(t *testing.T) {
	a := NewAnalyzer(16)
	a.Observe(7)
	if d := a.Observe(7); d != 0 {
		t.Errorf("immediate reuse distance = %d, want 0", d)
	}
}

func TestABAPattern(t *testing.T) {
	a := NewAnalyzer(16)
	a.Observe(1) // A cold
	a.Observe(2) // B cold
	if d := a.Observe(1); d != 1 {
		t.Errorf("A-B-A distance = %d, want 1", d)
	}
}

// TestRepeatedScan: scanning K distinct lines twice gives every
// second-pass access distance K-1.
func TestRepeatedScan(t *testing.T) {
	const k = 100
	a := NewAnalyzer(1024)
	for i := 0; i < k; i++ {
		a.Observe(uint64(i))
	}
	for i := 0; i < k; i++ {
		if d := a.Observe(uint64(i)); d != k-1 {
			t.Fatalf("second-pass distance of line %d = %d, want %d", i, d, k-1)
		}
	}
	if len(a.lastTime) != k {
		t.Errorf("distinct = %d", len(a.lastTime))
	}
}

// TestReferenceImplementation cross-checks the Fenwick-tree algorithm
// against a naive O(n²) stack simulation on random traces.
func TestReferenceImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		a := NewAnalyzer(32) // force growth
		var stack []uint64   // LRU stack, most recent first
		for i := 0; i < 2000; i++ {
			line := uint64(rng.Intn(50))
			got := a.Observe(line)

			// Naive: position in the LRU stack.
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
				t.Fatalf("trial %d access %d (line %d): distance %d, naive %d",
					trial, i, line, got, want)
			}
		}
	}
}

func TestHistogramAndMissRatio(t *testing.T) {
	// Cyclic scan over 64 lines, 4 rounds: after the cold round every
	// access has distance 63 → misses in any LRU cache smaller than 64
	// lines, hits at 64+.
	a := NewAnalyzer(1024)
	for round := 0; round < 4; round++ {
		for i := 0; i < 64; i++ {
			a.Observe(uint64(i))
		}
	}
	if a.Cold != 64 {
		t.Errorf("cold = %d", a.Cold)
	}
	if got := a.MissRatioAtCapacity(16); got != 1.0 {
		t.Errorf("miss ratio at 16 lines = %v, want 1 (thrashing)", got)
	}
	if got := a.MissRatioAtCapacity(128); got != 64.0/256.0 {
		t.Errorf("miss ratio at 128 lines = %v, want cold-only %v", got, 64.0/256.0)
	}
}

func TestLog2Bucket(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 63: 5, 64: 6}
	for d, want := range cases {
		if got := log2Bucket(d); got != want {
			t.Errorf("bucket(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestGrowthPreservesState(t *testing.T) {
	a := NewAnalyzer(4) // tiny: grows repeatedly
	for i := 0; i < 300; i++ {
		a.Observe(uint64(i % 10))
	}
	// The trace ends at line 9 (i = 299); since line 5's last access
	// (i = 295) the distinct lines touched are 6, 7, 8, 9.
	if d := a.Observe(5); d != 4 {
		t.Errorf("post-growth distance = %d, want 4", d)
	}
}

func BenchmarkObserve(b *testing.B) {
	a := NewAnalyzer(b.N + 16)
	for i := 0; i < b.N; i++ {
		a.Observe(uint64(i % 4096))
	}
}
