// Package reuse implements exact LRU reuse-distance (stack-distance)
// analysis over a full memory trace — the machinery behind the
// instrumentation-based structure-splitting baseline of Zhong et al.
// (reference [38] of the paper), whose cost is the paper's motivating
// contrast: computing reuse distances for every access slows programs by
// up to 153×, versus StructSlim's ~7% sampling.
//
// The analyzer uses the Bennett–Kruskal algorithm: a Fenwick tree over
// access timestamps counts, for each access, how many *distinct* lines
// were touched since the previous access to the same line — exactly the
// LRU stack distance. Each access costs O(log n).
package reuse

// Distance values.
const (
	// Infinite marks a line's first access (no previous use).
	Infinite = ^uint64(0)
)

// Analyzer computes exact reuse distances for a stream of line
// addresses.
type Analyzer struct {
	// lastTime maps a line to the timestamp of its previous access.
	lastTime map[uint64]uint64
	// bit is a Fenwick tree over timestamps: bit[t] == 1 when the access
	// at time t is the *most recent* access to its line.
	bit []uint64
	// time is the next timestamp (1-based for the Fenwick tree).
	time uint64

	// Hist buckets distances by ⌊log2⌋: Hist[k] counts distances in
	// [2^k, 2^(k+1)); Hist[0] counts 0 and 1. Cold (first-touch)
	// accesses are counted separately.
	Hist [64]uint64
	Cold uint64
	N    uint64 // total accesses observed
}

// NewAnalyzer pre-sizes for capacity accesses (the tree grows as
// needed).
func NewAnalyzer(capacity int) *Analyzer {
	if capacity < 16 {
		capacity = 16
	}
	return &Analyzer{
		lastTime: make(map[uint64]uint64),
		bit:      make([]uint64, capacity+1),
	}
}

func (a *Analyzer) add(i uint64, delta uint64) {
	for ; i < uint64(len(a.bit)); i += i & (^i + 1) {
		a.bit[i] += delta
	}
}

func (a *Analyzer) prefix(i uint64) uint64 {
	var s uint64
	for ; i > 0; i -= i & (^i + 1) {
		s += a.bit[i]
	}
	return s
}

func (a *Analyzer) grow() {
	// Rebuild the tree at double size from the set of last-access times:
	// only "most recent access" markers carry weight, so the live state is
	// exactly one +1 per tracked line.
	a.bit = make([]uint64, len(a.bit)*2)
	for _, t := range a.lastTime {
		a.add(t, 1)
	}
}

// Reset clears all observation state — timestamps, the Fenwick tree, and
// the histogram — while keeping the allocated tree capacity, so pooled
// analyzers can be reused across phases without reallocating.
func (a *Analyzer) Reset() {
	if len(a.lastTime) > 0 {
		a.lastTime = make(map[uint64]uint64, len(a.lastTime))
	}
	for i := range a.bit {
		a.bit[i] = 0
	}
	a.time = 0
	a.Hist = [64]uint64{}
	a.Cold = 0
	a.N = 0
}

// FromTrace runs the exact analyzer over a complete line-address trace
// and returns it with the full histogram populated — the differential
// baseline for static reuse predictions.
func FromTrace(lines []uint64) *Analyzer {
	a := NewAnalyzer(len(lines))
	for _, ln := range lines {
		a.Observe(ln)
	}
	return a
}

// Observe processes one access to a line and returns its reuse distance:
// the number of distinct lines accessed since this line's previous use,
// or Infinite on first touch.
func (a *Analyzer) Observe(line uint64) uint64 {
	a.time++
	t := a.time
	if t >= uint64(len(a.bit)) {
		a.grow()
	}
	a.N++

	prev, seen := a.lastTime[line]
	var dist uint64
	if !seen {
		dist = Infinite
		a.Cold++
	} else {
		// Distinct lines touched in (prev, t): each has exactly one
		// "most recent access" marker in that interval.
		dist = a.prefix(t-1) - a.prefix(prev)
		a.Hist[log2Bucket(dist)]++
	}
	if seen {
		a.add(prev, ^uint64(0)) // -1: prev is no longer the line's last access
	}
	a.add(t, 1)
	a.lastTime[line] = t
	return dist
}

func log2Bucket(d uint64) int {
	b := 0
	for d > 1 {
		d >>= 1
		b++
	}
	return b
}

// MissRatioAtCapacity estimates the miss ratio of a fully-associative
// LRU cache holding `lines` lines, from the recorded histogram: accesses
// whose reuse distance is ≥ capacity (plus cold misses) miss. Bucketing
// makes this approximate within one power of two.
func (a *Analyzer) MissRatioAtCapacity(lines uint64) float64 {
	if a.N == 0 {
		return 0
	}
	misses := a.Cold
	cut := log2Bucket(lines)
	for b := cut; b < len(a.Hist); b++ {
		misses += a.Hist[b]
	}
	return float64(misses) / float64(a.N)
}
