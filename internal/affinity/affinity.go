// Package affinity computes latency-weighted field affinities (Equation 7
// of the paper) and clusters high-affinity fields into the groups that
// become the structure-splitting advice.
//
// The input is the per-loop, per-field latency table the analyzer builds
// from attributed samples. For fields i and j,
//
//	A_ij = Σ lc_ij / Σ l_ij
//
// where Σ lc_ij is the latency of accessing i and j in loops that
// reference *both*, and Σ l_ij is their total latency program-wide. Unlike
// frequency-based affinity (Chilimbi et al.), weighting by measured load
// latency keeps a pair that co-occurs only in cheap loops apart — the
// paper's ART example, where P and U co-occur in two loops yet have
// affinity 0.05 because P's latency is dominated by P-only loops.
package affinity

import (
	"fmt"
	"sort"
)

// FieldID identifies a field by its byte offset within the structure —
// the analyzer's native field identity, translated to names only for
// reporting.
type FieldID = uint64

// Builder accumulates the (loop, field) → latency table.
type Builder struct {
	// perLoop[loopKey][offset] = latency
	perLoop map[uint64]map[FieldID]uint64
	total   map[FieldID]uint64
}

// NewBuilder returns an empty accumulator.
func NewBuilder() *Builder {
	return &Builder{
		perLoop: make(map[uint64]map[FieldID]uint64),
		total:   make(map[FieldID]uint64),
	}
}

// Add records latency for one field in one loop. Samples outside any loop
// should use a distinct pseudo-loop key per call site or a shared key 0;
// they then count toward totals and to co-occurrence within that key.
func (b *Builder) Add(loopKey uint64, field FieldID, latency uint64) {
	m := b.perLoop[loopKey]
	if m == nil {
		m = make(map[FieldID]uint64)
		b.perLoop[loopKey] = m
	}
	m[field] += latency
	b.total[field] += latency
}

// Edge is one affinity value between two fields (OffA < OffB).
type Edge struct {
	OffA, OffB FieldID
	Value      float64
	// CommonLatency and TotalLatency expose Equation 7's numerator and
	// denominator for reporting.
	CommonLatency uint64
	TotalLatency  uint64
}

// Matrix is the computed affinity relation.
type Matrix struct {
	Fields []FieldID // sorted
	Edges  []Edge    // all pairs with nonzero total latency, sorted by (OffA, OffB)

	byPair map[[2]FieldID]int
}

// Compute evaluates Equation 7 over everything added so far.
func (b *Builder) Compute() *Matrix {
	m := &Matrix{byPair: make(map[[2]FieldID]int)}
	for f := range b.total {
		m.Fields = append(m.Fields, f)
	}
	sort.Slice(m.Fields, func(i, j int) bool { return m.Fields[i] < m.Fields[j] })

	// Numerators: for each loop, every pair of fields it references
	// contributes both fields' latencies in that loop.
	common := make(map[[2]FieldID]uint64)
	for _, fields := range b.perLoop {
		ids := make([]FieldID, 0, len(fields))
		for f := range fields {
			ids = append(ids, f)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				pair := [2]FieldID{ids[x], ids[y]}
				common[pair] += fields[ids[x]] + fields[ids[y]]
			}
		}
	}

	for x := 0; x < len(m.Fields); x++ {
		for y := x + 1; y < len(m.Fields); y++ {
			pair := [2]FieldID{m.Fields[x], m.Fields[y]}
			tot := b.total[pair[0]] + b.total[pair[1]]
			if tot == 0 {
				continue
			}
			e := Edge{
				OffA:          pair[0],
				OffB:          pair[1],
				CommonLatency: common[pair],
				TotalLatency:  tot,
				Value:         float64(common[pair]) / float64(tot),
			}
			m.byPair[pair] = len(m.Edges)
			m.Edges = append(m.Edges, e)
		}
	}
	return m
}

// Affinity returns A_ij (symmetric; 0 for unknown fields or i == j).
func (m *Matrix) Affinity(a, b FieldID) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	if i, ok := m.byPair[[2]FieldID{a, b}]; ok {
		return m.Edges[i].Value
	}
	return 0
}

// Cluster partitions the fields into groups by single-link clustering:
// fields joined by any edge with affinity ≥ threshold land in the same
// group (connected components of the thresholded graph); everything else
// becomes a singleton. Groups and their members are sorted by offset, so
// the advice is deterministic.
func (m *Matrix) Cluster(threshold float64) [][]FieldID {
	parent := make(map[FieldID]FieldID, len(m.Fields))
	var find func(FieldID) FieldID
	find = func(x FieldID) FieldID {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, f := range m.Fields {
		parent[f] = f
	}
	for _, e := range m.Edges {
		if e.Value >= threshold {
			parent[find(e.OffA)] = find(e.OffB)
		}
	}
	groups := make(map[FieldID][]FieldID)
	for _, f := range m.Fields {
		r := find(f)
		groups[r] = append(groups[r], f)
	}
	out := make([][]FieldID, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// String renders the matrix compactly for debugging.
func (m *Matrix) String() string {
	s := ""
	for _, e := range m.Edges {
		s += fmt.Sprintf("A(%d,%d)=%.2f ", e.OffA, e.OffB, e.Value)
	}
	return s
}
