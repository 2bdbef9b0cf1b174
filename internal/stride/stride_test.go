package stride

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0}, {0, 5, 5}, {5, 0, 5}, {48, 32, 16}, {16, 48, 16},
		{7, 13, 1}, {56, 56, 56}, {24, 36, 12},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("gcd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCDProperties(t *testing.T) {
	// gcd divides both operands and is commutative.
	f := func(a, b uint64) bool {
		a %= 1 << 32
		b %= 1 << 32
		g := GCD(a, b)
		if g == 0 {
			return a == 0 && b == 0
		}
		return a%g == 0 && b%g == 0 && g == GCD(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOfAddressesPaperExample(t *testing.T) {
	// Paper Section 4.2.2: samples Arr[2].a, Arr[5].a, Arr[7].a of a
	// 16-byte struct → deltas 48, 32 → stride 16.
	addrs := []uint64{2 * 16, 5 * 16, 7 * 16}
	if got := OfAddresses(addrs); got != 16 {
		t.Errorf("stride = %d, want 16", got)
	}
}

func TestOfAddressesDegenerate(t *testing.T) {
	if OfAddresses(nil) != 0 {
		t.Error("empty stream should give 0")
	}
	if OfAddresses([]uint64{100}) != 0 {
		t.Error("single sample should give 0")
	}
	if OfAddresses([]uint64{100, 100, 100}) != 0 {
		t.Error("repeated address should give 0")
	}
}

func TestOfAddressesMultipleOfStride(t *testing.T) {
	// Sampling only even elements yields 2× the real stride — the
	// known failure mode Equation 4 quantifies.
	addrs := []uint64{0 * 16, 2 * 16, 4 * 16, 6 * 16}
	if got := OfAddresses(addrs); got != 32 {
		t.Errorf("stride = %d, want 32 (multiple of the real stride)", got)
	}
}

func TestOfAddressesIsMultipleProperty(t *testing.T) {
	// For any sample positions of a stride-S stream, the computed stride
	// is a multiple of S (or 0 when <2 distinct samples).
	f := func(positions []uint16, strideSel uint8) bool {
		stride := []uint64{8, 16, 24, 56, 64}[int(strideSel)%5]
		addrs := make([]uint64, len(positions))
		for i, p := range positions {
			addrs[i] = uint64(p) * stride
		}
		g := OfAddresses(addrs)
		return g == 0 || g%stride == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStructSize(t *testing.T) {
	cases := []struct {
		strides []uint64
		want    uint64
	}{
		{[]uint64{48, 32, 16}, 16},
		{[]uint64{112, 56}, 56},   // TSP tree: one stream sampled every other node
		{[]uint64{0, 24, 48}, 24}, // 0 (singleton stream) ignored
		{[]uint64{1, 64}, 64},     // irregular stream ignored
		{[]uint64{0, 1}, 0},       // nothing meaningful
		{nil, 0},
	}
	for _, c := range cases {
		if got := StructSize(c.strides); got != c.want {
			t.Errorf("StructSize(%v) = %d, want %d", c.strides, got, c.want)
		}
	}
}

func TestOffset(t *testing.T) {
	// f1_neuron-like: 64-byte struct, field at +8.
	base := uint64(0x10000000)
	ea := base + 37*64 + 8
	if got := Offset(ea, base, 64); got != 8 {
		t.Errorf("offset = %d, want 8", got)
	}
	if got := Offset(base, base, 64); got != 0 {
		t.Errorf("offset = %d, want 0", got)
	}
}

func TestAccuracyLowerBound(t *testing.T) {
	// Paper: "if k is larger than 10, the accuracy can be higher than
	// 99%".
	if got := AccuracyLowerBound(10); got <= 0.99 {
		t.Errorf("bound(10) = %v, want > 0.99", got)
	}
	// Monotone in k.
	prev := 0.0
	for k := 2; k <= 20; k++ {
		b := AccuracyLowerBound(k)
		if b < prev {
			t.Fatalf("bound not monotone at k=%d: %v < %v", k, b, prev)
		}
		prev = b
	}
	if AccuracyLowerBound(1) != 0 {
		t.Error("k=1 should give 0")
	}
	// k=2: 1 − Σ p^−2 ≈ 1 − 0.4522 (prime zeta at 2).
	if got := AccuracyLowerBound(2); math.Abs(got-(1-0.4522474200)) > 1e-4 {
		t.Errorf("bound(2) = %v", got)
	}
}

func TestAccuracyExact(t *testing.T) {
	// Exact accuracy approaches the closed-form bound from below as n
	// grows, and both are near 1 for k = 10.
	exact := AccuracyExact(100000, 10)
	bound := AccuracyLowerBound(10)
	if exact <= 0.99 {
		t.Errorf("exact(1e5, 10) = %v, want > 0.99", exact)
	}
	if math.Abs(exact-bound) > 1e-3 {
		t.Errorf("exact %v and bound %v should be close for large n", exact, bound)
	}
	// Degenerate shapes.
	if AccuracyExact(5, 10) != 0 || AccuracyExact(100, 1) != 0 {
		t.Error("degenerate accuracy should be 0")
	}
	// Small k on a small stream is meaningfully inaccurate.
	if got := AccuracyExact(100, 2); got > 0.9 {
		t.Errorf("exact(100, 2) = %v, should show real error mass", got)
	}
}

func TestBinomRatio(t *testing.T) {
	// C(5,2)/C(10,2) = 10/45.
	if got := binomRatio(5, 10, 2); math.Abs(got-10.0/45.0) > 1e-12 {
		t.Errorf("binomRatio = %v", got)
	}
}

func TestPrimesUnder(t *testing.T) {
	got := primesUnder(30)
	want := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
	if len(got) != len(want) {
		t.Fatalf("primes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("primes = %v", got)
		}
	}
	if primesUnder(2) != nil {
		t.Error("primesUnder(2) should be empty")
	}
}

// TestSimulateMatchesCorrectedModel validates the corrected analytic
// model against Monte Carlo: they must agree within noise for k ≥ 4.
// (Equation 4 as printed undercounts failures by a factor of p per prime;
// see AccuracyCorrected.)
func TestSimulateMatchesCorrectedModel(t *testing.T) {
	n := 10000
	for _, k := range []int{4, 6, 10} {
		sim := SimulateAccuracy(n, k, 4000, 16, 42)
		model := AccuracyCorrected(k)
		if math.Abs(sim-model) > 0.03 {
			t.Errorf("k=%d: simulated %v vs corrected model %v", k, sim, model)
		}
	}
	s10 := SimulateAccuracy(n, 10, 2000, 16, 42)
	s3 := SimulateAccuracy(n, 3, 2000, 16, 42)
	if s10 <= s3 {
		t.Errorf("accuracy should improve with k: k10=%v k3=%v", s10, s3)
	}
	// The paper's headline claim holds under the corrected model too.
	if s10 < 0.99 {
		t.Errorf("k=10 accuracy = %v, want ≥ 0.99", s10)
	}
	if AccuracyCorrected(10) < 0.99 {
		t.Errorf("corrected model at k=10 = %v, want ≥ 0.99", AccuracyCorrected(10))
	}
	// Two samples almost never pin the stride of a long stream.
	if s2 := SimulateAccuracy(n, 2, 2000, 16, 42); s2 > 0.05 {
		t.Errorf("k=2 accuracy = %v, expected ≈0", s2)
	}
	if AccuracyCorrected(2) != 0 {
		t.Error("corrected model must report 0 at k=2 (divergent sum)")
	}
}

func TestSimulateDegenerate(t *testing.T) {
	if SimulateAccuracy(10, 1, 100, 8, 1) != 0 {
		t.Error("k<2 should give 0")
	}
	if SimulateAccuracy(5, 10, 100, 8, 1) != 0 {
		t.Error("n<k should give 0")
	}
	if SimulateAccuracy(100, 5, 0, 8, 1) != 0 {
		t.Error("no trials should give 0")
	}
}

func TestSimulateNonUnitStride(t *testing.T) {
	// The accuracy analysis generalizes to any real stride (paper: "for
	// real stride of different values, we can get a similar equation and
	// conclusion").
	for _, stride := range []uint64{8, 24, 56, 64} {
		sim := SimulateAccuracy(5000, 12, 1000, stride, 7)
		if sim < 0.99 {
			t.Errorf("stride %d: accuracy %v, want ≥ 0.99", stride, sim)
		}
	}
}
