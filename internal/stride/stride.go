// Package stride implements StructSlim's GCD stride analysis (Section 4.2
// of the paper): recovering an access stride from sparse address samples
// (Equations 2–3), the structure size from stream strides (Equation 5),
// field offsets (Equation 6), and the accuracy model of Equation 4 with a
// Monte-Carlo checker.
package stride

import (
	"math"
	"sort"
)

// GCD is Euclid's algorithm. GCD(0, x) = x, so a fold may start from 0.
func GCD(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// OfAddresses computes the stream stride from sampled effective addresses
// in observation order: the GCD of |m_i − m_{i−1}| over adjacent samples
// (Equations 2–3). Duplicate adjacent addresses contribute nothing.
// Returns 0 when fewer than two distinct addresses were seen.
func OfAddresses(addrs []uint64) uint64 {
	var g uint64
	for i := 1; i < len(addrs); i++ {
		var d uint64
		if addrs[i] >= addrs[i-1] {
			d = addrs[i] - addrs[i-1]
		} else {
			d = addrs[i-1] - addrs[i]
		}
		g = GCD(g, d)
	}
	return g
}

// MinMeaningfulStride is the smallest stride that indicates an aggregate
// access pattern. The paper: "access patterns with stride 1, either
// regular or irregular, are not of interest for StructSlim because there
// is no structure splitting opportunity"; the GCD algorithm also reports
// irregular patterns as stride 1.
const MinMeaningfulStride = 2

// StructSize aggregates stream strides into the structure size by taking
// their GCD (Equation 5). Strides of 0 (streams with one distinct
// address) and 1 (irregular or unit-stride streams, per the paper not of
// interest) are excluded so one irregular stream cannot poison the size.
// Returns 0 when no stream contributes.
func StructSize(strides []uint64) uint64 {
	var g uint64
	for _, s := range strides {
		if s < MinMeaningfulStride {
			continue
		}
		g = GCD(g, s)
	}
	return g
}

// Offset locates the field a stream accesses: (ea − base) mod size
// (Equation 6). size must be nonzero.
func Offset(ea, base, size uint64) uint64 {
	return (ea - base) % size
}

// --- Equation 4: accuracy of the GCD algorithm -----------------------------

// AccuracyLowerBound evaluates the closed-form lower bound of Equation 4:
//
//	accuracy > 1 − Σ_{p prime} p^−k
//
// the probability that k uniform samples of a unit-stride stream yield a
// GCD of exactly 1. For k ≥ 10 this exceeds 99%, the paper's headline
// claim.
func AccuracyLowerBound(k int) float64 {
	if k <= 1 {
		return 0
	}
	sum := 0.0
	for _, p := range primesUnder(10000) {
		term := math.Pow(float64(p), -float64(k))
		sum += term
		if term < 1e-15 {
			break
		}
	}
	if sum > 1 {
		sum = 1
	}
	return 1 - sum
}

// AccuracyExact evaluates Equation 4 as written: for a stream of n
// addresses with unit real stride, sampled at k unique positions,
//
//	accuracy = 1 − [ C(n/2, k) + C(n/3, k) + C(n/5, k) + … ] / C(n, k)
//
// summing over primes p ≤ n/k' where terms are nonzero. (As the paper
// notes, the union bound over primes double-counts slightly, so this is a
// conservative estimate.)
func AccuracyExact(n, k int) float64 {
	if k <= 1 || n < k {
		return 0
	}
	sum := 0.0
	for _, p := range primesUnder(n + 1) {
		m := n / p
		if m < k {
			break // primes are increasing, so all later terms vanish
		}
		sum += binomRatio(m, n, k)
	}
	if sum > 1 {
		sum = 1
	}
	return 1 - sum
}

// AccuracyCorrected evaluates a corrected analytic model:
//
//	accuracy ≈ 1 − Σ_{p prime} p^(1−k)
//
// Equation 4 as printed counts only sample sets whose positions are all
// ≡ 0 (mod p), i.e. C(n/p, k) of them; but the GCD of the address
// differences is a multiple of p whenever all k positions fall in the
// *same* residue class mod p — any of the p classes — which is ~p times
// as many sets. Monte-Carlo simulation (SimulateAccuracy) matches this
// corrected model closely (e.g. k=4: ≈0.825 here and ≈0.83 simulated,
// versus 0.923 from the printed formula). The paper's headline conclusion
// survives the correction: Σ p^(1−k) < 1% for k ≥ 10. For k = 2 the
// corrected sum diverges, correctly predicting that two samples almost
// never pin down the stride of a long stream.
func AccuracyCorrected(k int) float64 {
	if k <= 2 {
		return 0 // Σ p^(1−k) diverges at k = 2
	}
	sum := 0.0
	for _, p := range primesUnder(100000) {
		term := math.Pow(float64(p), 1-float64(k))
		sum += term
		if term < 1e-15 {
			break
		}
	}
	if sum > 1 {
		sum = 1
	}
	return 1 - sum
}

// binomRatio computes C(m, k) / C(n, k) without overflow:
// Π_{i=0..k−1} (m−i)/(n−i).
func binomRatio(m, n, k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= float64(m-i) / float64(n-i)
	}
	return r
}

// primesUnder returns all primes < n (simple sieve; n is small here).
func primesUnder(n int) []int {
	if n <= 2 {
		return nil
	}
	composite := make([]bool, n)
	var primes []int
	for i := 2; i < n; i++ {
		if composite[i] {
			continue
		}
		primes = append(primes, i)
		for j := i * 2; j < n; j += i {
			composite[j] = true
		}
	}
	return primes
}

// SimulateAccuracy estimates the GCD algorithm's accuracy by Monte Carlo:
// it draws k unique sample positions from a stream of n addresses with
// the given real stride, runs the GCD algorithm, and reports the fraction
// of trials that recover the stride exactly. This is the empirical
// validation of Equation 4.
func SimulateAccuracy(n, k, trials int, realStride uint64, seed uint64) float64 {
	if k < 2 || n < k || trials <= 0 {
		return 0
	}
	rng := seed*2862933555777941757 + 3037000493
	next := func(bound int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(bound))
	}
	hits := 0
	positions := make([]int, 0, k)
	used := make(map[int]bool, k)
	addrs := make([]uint64, 0, k)
	for t := 0; t < trials; t++ {
		positions = positions[:0]
		for len(positions) < k {
			pos := next(n)
			if !used[pos] {
				used[pos] = true
				positions = append(positions, pos)
			}
		}
		for pos := range used {
			delete(used, pos)
		}
		// The GCD algorithm sees samples in time order, i.e. position
		// order for a forward scan.
		sort.Ints(positions)
		addrs = addrs[:0]
		for _, pos := range positions {
			addrs = append(addrs, uint64(pos)*realStride)
		}
		if OfAddresses(addrs) == realStride {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}
