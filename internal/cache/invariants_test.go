package cache

import (
	"math/rand"
	"testing"
)

// checkInclusion asserts the inclusive-hierarchy invariant: every valid
// line in a private level is present in every level below it (same core
// for private levels, the shared instance for shared ones).
func checkInclusion(t *testing.T, h *Hierarchy) {
	t.Helper()
	for li := 0; li < len(h.levels)-1; li++ {
		for core := 0; core < h.numCores; core++ {
			upper := h.inst(li, core)
			for _, set := range upper.sets {
				for _, ln := range set {
					if !ln.valid {
						continue
					}
					for lj := li + 1; lj < len(h.levels); lj++ {
						lower := h.inst(lj, core)
						if lower.peek(ln.tag) == nil {
							t.Fatalf("inclusion violated: line %#x in %s (core %d) missing from %s",
								ln.tag, h.cfg.Levels[li].Name, core, h.cfg.Levels[lj].Name)
						}
					}
				}
			}
		}
	}
}

// checkDirectory asserts that every valid line in a core's private
// hierarchy has its directory bit set (the converse may transiently not
// hold, which is safe: spurious probes, never missed ones). Single-core
// hierarchies carry no directory at all.
func checkDirectory(t *testing.T, h *Hierarchy) {
	t.Helper()
	lp := h.lastPriv
	if lp < 0 {
		return
	}
	if !h.coherent {
		if n := h.directory.len(); n != 0 {
			t.Fatalf("single-core hierarchy grew a %d-entry directory", n)
		}
		return
	}
	for core := 0; core < h.numCores; core++ {
		for li := 0; li <= lp; li++ {
			inst := h.inst(li, core)
			for _, set := range inst.sets {
				for _, ln := range set {
					if !ln.valid {
						continue
					}
					if h.directory.get(ln.tag)&(1<<uint(core)) == 0 {
						t.Fatalf("directory lost core %d's line %#x (level %s)",
							core, ln.tag, h.cfg.Levels[li].Name)
					}
				}
			}
		}
	}
}

// cohRecorder tallies coherence events by kind and per line, and checks
// per-event sanity (victim differs from initiator on probe events).
type cohRecorder struct {
	t       *testing.T
	byKind  [3]uint64
	perLine map[uint64]uint64 // back-invalidations per line tag
}

func newCohRecorder(t *testing.T) *cohRecorder {
	return &cohRecorder{t: t, perLine: make(map[uint64]uint64)}
}

func (c *cohRecorder) OnCoherence(ev *CoherenceEvent) {
	c.byKind[ev.Kind]++
	switch ev.Kind {
	case CoherenceBackInvalidate:
		c.perLine[ev.Tag]++
		if ev.Addr != 0 {
			c.t.Errorf("back-invalidation of line %#x carries cause address %#x", ev.Tag, ev.Addr)
		}
	case CoherenceWriteInvalidate, CoherenceDowngrade:
		if ev.Victim == ev.Core {
			c.t.Errorf("%s event with victim == initiator (core %d, line %#x)", ev.Kind, ev.Core, ev.Tag)
		}
	}
	if ev.Kind == CoherenceDowngrade && ev.Dirty {
		c.t.Errorf("downgrade of line %#x flagged dirty", ev.Tag)
	}
}

// checkCoherenceCounts asserts the per-event counters agree with the
// observer's tallies and with the historical per-level counter.
func checkCoherenceCounts(t *testing.T, st Stats, rec *cohRecorder) {
	t.Helper()
	if st.WriteInvalidations != rec.byKind[CoherenceWriteInvalidate] {
		t.Fatalf("write-invalidations: stats %d, observer %d",
			st.WriteInvalidations, rec.byKind[CoherenceWriteInvalidate])
	}
	if st.BackInvalidations != rec.byKind[CoherenceBackInvalidate] {
		t.Fatalf("back-invalidations: stats %d, observer %d",
			st.BackInvalidations, rec.byKind[CoherenceBackInvalidate])
	}
	if st.Downgrades != rec.byKind[CoherenceDowngrade] {
		t.Fatalf("downgrades: stats %d, observer %d", st.Downgrades, rec.byKind[CoherenceDowngrade])
	}
	var perLineSum uint64
	for _, n := range rec.perLine {
		perLineSum += n
	}
	if perLineSum != st.BackInvalidations {
		t.Fatalf("per-line back-invalidation sum %d != total %d", perLineSum, st.BackInvalidations)
	}
	// Every protocol event invalidated at least one level of the victim,
	// so the per-level counter bounds the per-event ones from above.
	if st.Invalidations < st.WriteInvalidations+st.BackInvalidations {
		t.Fatalf("per-level invalidations %d < per-event write %d + back %d",
			st.Invalidations, st.WriteInvalidations, st.BackInvalidations)
	}
}

func TestHierarchyInvariantsUnderRandomAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var totalBackInv, totalWriteInv uint64
	for trial := 0; trial < 20; trial++ {
		cfg := tinyConfig()
		cfg.Prefetch = trial%2 == 1
		cfg.PrefetchDegree = 2
		cores := 1 + trial%3
		h, err := NewHierarchy(cfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		rec := newCohRecorder(t)
		h.SetCoherenceObserver(rec)
		for i := 0; i < 3000; i++ {
			core := rng.Intn(cores)
			// A mix of hot lines (conflict pressure) and a wide range.
			var addr uint64
			if rng.Intn(2) == 0 {
				addr = uint64(rng.Intn(64)) * 64
			} else {
				addr = uint64(rng.Intn(1 << 20))
			}
			h.Access(core, uint64(0x400000+rng.Intn(32)*4), addr, 8, rng.Intn(3) == 0)
		}
		checkInclusion(t, h)
		checkDirectory(t, h)
		// Counter sanity: hits + misses == accesses at every level.
		st := h.Stats()
		for _, ls := range st.Levels {
			if ls.Hits+ls.Misses != ls.Accesses {
				t.Fatalf("%s: hits %d + misses %d != accesses %d",
					ls.Name, ls.Hits, ls.Misses, ls.Accesses)
			}
		}
		if st.Levels[0].Accesses != st.DemandAccesses {
			t.Fatalf("L1 accesses %d != demand %d", st.Levels[0].Accesses, st.DemandAccesses)
		}
		checkCoherenceCounts(t, st, rec)
		if cores == 1 && (st.WriteInvalidations != 0 || st.Downgrades != 0) {
			t.Fatalf("single core saw %d write-invalidations / %d downgrades",
				st.WriteInvalidations, st.Downgrades)
		}
		totalBackInv += st.BackInvalidations
		totalWriteInv += st.WriteInvalidations
	}
	// The small shared level overflows under mixed accesses and multi-core
	// trials contend on the hot lines; the per-event counters must see
	// those protocol actions, not just perform them.
	if totalBackInv == 0 {
		t.Fatal("no back-invalidations counted across all trials despite eviction pressure")
	}
	if totalWriteInv == 0 {
		t.Fatal("no write-invalidations counted across all trials despite hot-line contention")
	}
}

// TestCoherenceEventCounts pins the per-event semantics on a deterministic
// two-core ping-pong: every write to a line the other core holds is
// exactly one write-invalidation, and a read of a modified remote line is
// exactly one downgrade.
func TestCoherenceEventCounts(t *testing.T) {
	h, err := NewHierarchy(tinyConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := newCohRecorder(t)
	h.SetCoherenceObserver(rec)

	const addr = 0x1000
	h.Access(0, 1, addr, 8, true) // core 0: exclusive+dirty
	h.Access(1, 1, addr, 8, true) // kicks core 0: 1 write-invalidation, dirty
	h.Access(0, 1, addr, 8, true) // kicks core 1: 2nd write-invalidation
	st := h.Stats()
	if st.WriteInvalidations != 2 {
		t.Fatalf("ping-pong write-invalidations = %d, want 2", st.WriteInvalidations)
	}
	if st.Downgrades != 0 {
		t.Fatalf("write ping-pong produced %d downgrades", st.Downgrades)
	}

	h.Access(1, 1, addr, 8, false) // read of core 0's modified line: downgrade
	st = h.Stats()
	if st.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", st.Downgrades)
	}
	if st.WriteInvalidations != 2 {
		t.Fatalf("read fill changed write-invalidations to %d", st.WriteInvalidations)
	}
	checkCoherenceCounts(t, st, rec)
}

// TestAccessedLineLandsInL1: after any demand access the line is L1-
// resident (write-allocate, fill-on-miss).
func TestAccessedLineLandsInL1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h, _ := NewHierarchy(tinyConfig(), 2)
	for i := 0; i < 2000; i++ {
		core := rng.Intn(2)
		addr := uint64(rng.Intn(1 << 18))
		h.Access(core, 1, addr, 8, rng.Intn(2) == 0)
		if h.inst(0, core).peek(addr>>6) == nil {
			t.Fatalf("line %#x absent from L1 immediately after access", addr>>6)
		}
	}
}
