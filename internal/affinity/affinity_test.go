package affinity

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEquation7TwoFieldsAlwaysTogether(t *testing.T) {
	// X and Q accessed together in every loop that touches either →
	// affinity 1.
	b := NewBuilder()
	b.Add(1, 0, 100)
	b.Add(1, 8, 150)
	b.Add(2, 0, 50)
	b.Add(2, 8, 70)
	m := b.Compute()
	if got := m.Affinity(0, 8); got != 1.0 {
		t.Errorf("affinity = %v, want 1", got)
	}
	if got := m.Affinity(8, 0); got != 1.0 {
		t.Error("affinity not symmetric")
	}
}

func TestEquation7NeverTogether(t *testing.T) {
	b := NewBuilder()
	b.Add(1, 0, 100) // loop 1 touches only field 0
	b.Add(2, 8, 100) // loop 2 touches only field 8
	m := b.Compute()
	if got := m.Affinity(0, 8); got != 0 {
		t.Errorf("affinity = %v, want 0", got)
	}
}

// TestPaperARTNumbers reproduces the paper's ART affinity logic: P and U
// co-occur in two loops worth 1.59% and 2.25% of latency, but P alone
// dominates via 56.57% + 14.40% loops, so A(P,U) is tiny; I and U share
// their dominant loop, so A(I,U) is high.
func TestPaperARTNumbers(t *testing.T) {
	const (
		offI = 0
		offU = 8
		offP = 16
	)
	b := NewBuilder()
	// Loop 131-138 (U,P): 1.59 units split between U and P.
	b.Add(131, offU, 80)
	b.Add(131, offP, 79)
	// Loop 545-548 (U,I): 10.83 units.
	b.Add(545, offU, 541)
	b.Add(545, offI, 542)
	// Loop 615-616 (P): 56.57.
	b.Add(615, offP, 5657)
	// Loop 607-608 (P): 14.40.
	b.Add(607, offP, 1440)
	// Loop 589-592 (U,P): 2.25.
	b.Add(589, offU, 112)
	b.Add(589, offP, 113)
	// Loop 1015-1016 (I): 0.24.
	b.Add(1015, offI, 24)
	m := b.Compute()

	aIU := m.Affinity(offI, offU)
	if aIU < 0.80 || aIU > 0.92 {
		t.Errorf("A(I,U) = %v, want ≈0.86 (paper)", aIU)
	}
	aPU := m.Affinity(offP, offU)
	if aPU > 0.10 {
		t.Errorf("A(P,U) = %v, want ≈0.05 (paper)", aPU)
	}

	// Clustering at 0.5 groups {I,U} and leaves P alone — the paper's
	// splitting decision.
	groups := m.Cluster(0.5)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 2 || groups[0][0] != offI || groups[0][1] != offU {
		t.Errorf("group 0 = %v, want [I U]", groups[0])
	}
	if len(groups[1]) != 1 || groups[1][0] != offP {
		t.Errorf("group 1 = %v, want [P]", groups[1])
	}
}

func TestEdgeExposesEquationTerms(t *testing.T) {
	b := NewBuilder()
	b.Add(1, 0, 30)
	b.Add(1, 8, 50)
	b.Add(2, 0, 20)
	m := b.Compute()
	if len(m.Edges) != 1 {
		t.Fatalf("edges = %d", len(m.Edges))
	}
	e := m.Edges[0]
	if e.CommonLatency != 80 || e.TotalLatency != 100 {
		t.Errorf("edge terms = %d/%d, want 80/100", e.CommonLatency, e.TotalLatency)
	}
	if math.Abs(e.Value-0.8) > 1e-12 {
		t.Errorf("value = %v", e.Value)
	}
}

func TestClusterTransitivity(t *testing.T) {
	// Single-link: A-B high, B-C high, A-C low still merges all three.
	b := NewBuilder()
	b.Add(1, 0, 100)
	b.Add(1, 8, 100)
	b.Add(2, 8, 100)
	b.Add(2, 16, 100)
	b.Add(3, 0, 10) // some independent latency
	b.Add(4, 16, 10)
	m := b.Compute()
	groups := m.Cluster(0.5)
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Errorf("groups = %v, want one group of three", groups)
	}
}

func TestClusterThresholdBoundary(t *testing.T) {
	b := NewBuilder()
	b.Add(1, 0, 50)
	b.Add(1, 8, 50)
	b.Add(2, 0, 50)
	b.Add(3, 8, 50)
	m := b.Compute()
	// A(0,8) = 100/200 = 0.5 exactly.
	if got := m.Affinity(0, 8); got != 0.5 {
		t.Fatalf("affinity = %v", got)
	}
	if g := m.Cluster(0.5); len(g) != 1 {
		t.Errorf("threshold is inclusive: groups = %v", g)
	}
	if g := m.Cluster(0.51); len(g) != 2 {
		t.Errorf("above-threshold should split: groups = %v", g)
	}
}

func TestAffinitySelfAndUnknown(t *testing.T) {
	b := NewBuilder()
	b.Add(1, 0, 10)
	m := b.Compute()
	if m.Affinity(0, 0) != 0 || m.Affinity(0, 99) != 0 {
		t.Error("self/unknown affinity should be 0")
	}
}

func TestDeterministicOrdering(t *testing.T) {
	b := NewBuilder()
	for _, off := range []uint64{24, 0, 16, 8} {
		b.Add(1, off, 10)
	}
	m := b.Compute()
	for i := 1; i < len(m.Fields); i++ {
		if m.Fields[i] <= m.Fields[i-1] {
			t.Fatal("fields not sorted")
		}
	}
	for i := 1; i < len(m.Edges); i++ {
		a, b2 := m.Edges[i-1], m.Edges[i]
		if a.OffA > b2.OffA || (a.OffA == b2.OffA && a.OffB >= b2.OffB) {
			t.Fatal("edges not sorted")
		}
	}
	groups := m.Cluster(0.5)
	for i := 1; i < len(groups); i++ {
		if groups[i][0] <= groups[i-1][0] {
			t.Fatal("groups not sorted")
		}
	}
}

// Properties: affinity values live in [0,1]; clustering at threshold 0
// yields one group (everything co-accessed transitively or not, all edges
// ≥ 0 qualify); at threshold > 1 everything is a singleton; the groups
// always partition the field set.
func TestClusterProperties(t *testing.T) {
	f := func(entries []struct {
		Loop uint8
		Off  uint8
		Lat  uint16
	}) bool {
		if len(entries) == 0 {
			return true
		}
		b := NewBuilder()
		for _, e := range entries {
			b.Add(uint64(e.Loop%8), uint64(e.Off%6)*8, uint64(e.Lat)+1)
		}
		m := b.Compute()
		for _, e := range m.Edges {
			if e.Value < 0 || e.Value > 1 {
				return false
			}
		}
		all := m.Cluster(0)
		if len(all) != 1 {
			return false
		}
		singles := m.Cluster(1.1)
		if len(singles) != len(m.Fields) {
			return false
		}
		seen := make(map[uint64]int)
		for _, g := range m.Cluster(0.5) {
			for _, f := range g {
				seen[f]++
			}
		}
		if len(seen) != len(m.Fields) {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
