package cache

import "fmt"

// CoherenceKind classifies one coherence event.
type CoherenceKind uint8

// Coherence event kinds.
const (
	// CoherenceWriteInvalidate: a write probe removed another core's copy
	// of the line (MESI write-invalidate).
	CoherenceWriteInvalidate CoherenceKind = iota
	// CoherenceBackInvalidate: a shared-level eviction removed a private
	// copy to preserve inclusion.
	CoherenceBackInvalidate
	// CoherenceDowngrade: a read fill demoted another core's
	// exclusive/modified copy to shared.
	CoherenceDowngrade
)

func (k CoherenceKind) String() string {
	switch k {
	case CoherenceWriteInvalidate:
		return "write-invalidate"
	case CoherenceBackInvalidate:
		return "back-invalidate"
	case CoherenceDowngrade:
		return "downgrade"
	}
	return "?"
}

// CoherenceEvent describes one coherence action on one line. One event is
// emitted per victim core, regardless of how many of its private levels
// held the line — the protocol-level event count, not the per-level
// bookkeeping count.
type CoherenceEvent struct {
	Kind CoherenceKind
	// Tag is the line address (addr >> log2(LineSize)).
	Tag uint64
	// Addr is the accessing effective address that triggered the event
	// (the probe cause); 0 for back-invalidations and prefetch-triggered
	// events, whose cause is unrelated to the victim line.
	Addr uint64
	// Core initiated the event; Victim lost (or downgraded) its copy.
	Core, Victim int
	// Dirty reports whether the victim's copy was modified (a writeback).
	Dirty bool
}

// CoherenceObserver is notified of every coherence event. Observers run
// inline in the access path and must be cheap; the event is only valid for
// the duration of the call (the hierarchy reuses one event so the hot path
// does not allocate) — observers that keep data must copy it out.
type CoherenceObserver interface {
	OnCoherence(ev *CoherenceEvent)
}

// Hierarchy is a multi-core cache hierarchy: the private levels are
// instantiated per core, the shared levels once.
type Hierarchy struct {
	cfg       Config
	lineShift uint
	numCores  int

	// levels[i] holds either numCores instances (private) or 1 (shared).
	levels [][]*level

	// directory maps a line tag to the bitmask of cores whose private
	// hierarchy may hold it. Maintained on private fills and evictions;
	// consulted on writes to shared lines and on back-invalidations.
	directory *dirTable
	// coherent is false on single-core hierarchies, where no other core
	// can ever hold a line: the whole directory protocol is skipped, so
	// the per-access path does no coherence bookkeeping and the directory
	// cannot grow.
	coherent bool
	// lastPriv caches the index of the deepest private level (-1 if all
	// levels are shared); it is consulted on every fill.
	lastPriv int

	prefetchers []*strideTable
	tlbs        []*tlb
	// PrefetchIssued counts prefetcher activity.
	PrefetchIssued uint64

	demandAccesses uint64
	writeBacks     uint64
	invalidations  uint64

	// Per-event coherence counters: one increment per victim core, unlike
	// invalidations above, which counts per level per core (the historical
	// bookkeeping counter, kept for compatibility).
	writeInvalidations uint64
	backInvalidations  uint64
	downgrades         uint64

	// cohObs, when set, receives every coherence event; cohScratch is the
	// reused event and curAddr the effective address of the in-flight
	// demand access (0 during prefetch fills).
	cohObs     CoherenceObserver
	cohScratch CoherenceEvent
	curAddr    uint64

	// hot is the per-core L1 hot-line shadow (nil when disabled): a
	// direct-mapped table of recently touched lines, each entry a
	// (tag, *line) pair pointing into the core's L1. A demand access
	// whose entry matches and whose line still holds the tag is an L1 hit
	// answered without the level walk. Entries are never invalidated —
	// every eviction, write-invalidation, back-invalidation, or
	// downgrade mutates the pointed-to line, so stale entries fail the
	// verification compare and fall into the full path. l1Line carries
	// the L1 slot the in-flight demand access hit or filled, for shadow
	// update. deep is the same trick for prefetchPresent, pointing into
	// the deepest level of each core's view.
	hot    [][]hotEntry
	deep   [][]hotEntry
	l1Line *line
	l1Lat  uint32 // Levels[0].Latency, preloaded for the fast path
}

// hotEntry is one L1 hot-line shadow slot.
type hotEntry struct {
	tag uint64
	ln  *line
}

const (
	hotLines = 1024
	hotMask  = hotLines - 1
)

// NewHierarchy builds a hierarchy for the given core count.
func NewHierarchy(cfg Config, numCores int) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numCores <= 0 {
		return nil, fmt.Errorf("core count %d", numCores)
	}
	h := &Hierarchy{cfg: cfg, numCores: numCores, directory: newDirTable()}
	h.l1Lat = uint32(cfg.Levels[0].Latency)
	for s := cfg.LineSize; s > 1; s >>= 1 {
		h.lineShift++
	}
	for _, lc := range cfg.Levels {
		n := numCores
		if lc.Shared {
			n = 1
		}
		insts := make([]*level, n)
		for i := range insts {
			insts[i] = newLevel(lc, cfg.LineSize)
		}
		h.levels = append(h.levels, insts)
	}
	h.lastPriv = -1
	for i, lc := range cfg.Levels {
		if !lc.Shared {
			h.lastPriv = i
		}
	}
	h.coherent = numCores > 1 && h.lastPriv >= 0
	if cfg.Prefetch {
		h.prefetchers = make([]*strideTable, numCores)
		for i := range h.prefetchers {
			h.prefetchers[i] = newStrideTable()
		}
	}
	if tcfg := cfg.TLB.withDefaults(); tcfg.Entries > 0 {
		h.cfg.TLB = tcfg
		h.tlbs = make([]*tlb, numCores)
		for i := range h.tlbs {
			h.tlbs[i] = newTLB(tcfg)
		}
	}
	if !cfg.DisableHotLine {
		h.hot = make([][]hotEntry, numCores)
		h.deep = make([][]hotEntry, numCores)
		backing := make([]hotEntry, 2*numCores*hotLines)
		for i := range h.hot {
			h.hot[i] = backing[2*i*hotLines : (2*i+1)*hotLines]
			h.deep[i] = backing[(2*i+1)*hotLines : (2*i+2)*hotLines]
		}
	}
	return h, nil
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// NumCores returns the configured core count.
func (h *Hierarchy) NumCores() int { return h.numCores }

func (h *Hierarchy) inst(levelIdx, core int) *level {
	insts := h.levels[levelIdx]
	if len(insts) == 1 {
		return insts[0]
	}
	return insts[core]
}

// SetCoherenceObserver attaches (or, with nil, detaches) the per-line
// coherence stats hook. The observer sees every write-invalidation,
// inclusion back-invalidation, and read downgrade as it happens.
func (h *Hierarchy) SetCoherenceObserver(o CoherenceObserver) { h.cohObs = o }

// CoherenceObserver returns the attached coherence observer, or nil.
func (h *Hierarchy) CoherenceObserver() CoherenceObserver { return h.cohObs }

// emitCoherence delivers one coherence event to the observer, if any.
func (h *Hierarchy) emitCoherence(kind CoherenceKind, tag uint64, core, victim int, dirty bool) {
	if h.cohObs == nil {
		return
	}
	ev := &h.cohScratch
	ev.Kind = kind
	ev.Tag = tag
	ev.Addr = h.curAddr
	if kind == CoherenceBackInvalidate {
		ev.Addr = 0 // eviction fallout: the access is unrelated to the victim line
	}
	ev.Core = core
	ev.Victim = victim
	ev.Dirty = dirty
	h.cohObs.OnCoherence(ev)
}

// Access performs one demand access by core to addr. pc is the accessing
// instruction's address (used by the prefetcher). Accesses that span two
// lines are charged to the first line. Returns the serving level and
// total latency.
func (h *Hierarchy) Access(core int, pc, addr uint64, size int, write bool) Result {
	tag := addr >> h.lineShift
	if h.hot != nil {
		e := &h.hot[core][tag&hotMask]
		// The fast path requires the shadow entry and the line it points
		// to to agree on the tag (any eviction or invalidation since the
		// entry was written breaks one of the two), and takes writes only
		// on lines no other core holds: a write hit on a shared line must
		// probe the directory, which is the full path's job. Lines aged
		// out by a statistical fast-forward fall into the full path too,
		// which retires them.
		if e.tag == tag && e.ln != nil && e.ln.valid && e.ln.tag == tag && (!write || !e.ln.shared) &&
			!h.inst(0, core).aged(e.ln) {
			return h.hotHit(core, addr, pc, e.ln, write)
		}
	}
	h.demandAccesses++
	h.curAddr = addr
	h.l1Line = nil

	res := h.accessLine(core, tag, write, true)
	if h.hot != nil && h.l1Line != nil {
		h.hot[core][tag&hotMask] = hotEntry{tag: tag, ln: h.l1Line}
	}
	if h.tlbs != nil {
		res.Latency += uint32(h.tlbs[core].access(addr))
	}

	if h.prefetchers != nil {
		h.curAddr = 0 // prefetch fallout is not caused by this address
		h.trainPrefetcher(core, pc, addr)
	}
	return res
}

// hotHit replays exactly what the full path does for an L1 hit: counters,
// LRU touch, dirty/shared transition on writes (the caller guarantees the
// line is not shared, so a write is a silent upgrade with no directory
// traffic and an L1 hit never fills, downgrades, or touches the
// directory), TLB latency, and prefetcher training.
func (h *Hierarchy) hotHit(core int, addr, pc uint64, ln *line, write bool) Result {
	h.demandAccesses++
	l1 := h.inst(0, core)
	l1.Accesses++
	l1.Hits++
	l1.lruClock++
	ln.lru = l1.lruClock
	if write {
		ln.dirty = true
		ln.shared = false
	}
	res := Result{Latency: h.l1Lat, Level: 1}
	if h.tlbs != nil {
		res.Latency += uint32(h.tlbs[core].access(addr))
	}
	if h.prefetchers != nil {
		h.curAddr = 0 // prefetch fallout is not caused by this address
		h.trainPrefetcher(core, pc, addr)
	}
	return res
}

// accessLine walks the hierarchy for one line. demand distinguishes real
// accesses from prefetches (prefetches do not perturb counters).
func (h *Hierarchy) accessLine(core int, tag uint64, write, demand bool) Result {
	hitLevel := -1
	var hitLine *line
	for li := range h.levels {
		inst := h.inst(li, core)
		if demand {
			inst.Accesses++
		}
		if w := inst.lookup(tag); w != nil {
			hitLevel = li
			hitLine = w
			if demand {
				inst.Hits++
			}
			break
		}
		if demand {
			inst.Misses++
		}
	}

	latency := 0
	servedBy := len(h.levels) + 1 // memory
	if hitLevel >= 0 {
		latency = h.cfg.Levels[hitLevel].Latency
		servedBy = hitLevel + 1
	} else {
		latency = h.cfg.MemLatency
	}

	// Write semantics: writing a line that another core may hold must
	// invalidate the other copies (MESI write-invalidate). Single-core
	// hierarchies have no other copies: the whole protocol is skipped.
	if write && h.coherent {
		if hitLine != nil && hitLevel < len(h.levels) && !h.cfg.Levels[hitLevel].Shared && !hitLine.shared {
			// Exclusive in our own private hierarchy: silent upgrade.
		} else {
			h.invalidateOthers(core, tag)
		}
	}

	// Fill the line into every level above the serving one (on a full
	// miss, into every level — inclusive hierarchy).
	fillTo := hitLevel
	if fillTo < 0 {
		fillTo = len(h.levels)
	}
	sharedByOthers := false
	if h.coherent {
		sharedByOthers = h.heldByOthers(core, tag)
		if sharedByOthers && !write && fillTo > 0 {
			// Another core holds the line exclusive/modified; a read fill
			// downgrades its copy to shared so its next write probes us.
			h.downgradeOthers(core, tag)
		}
	}
	for li := fillTo - 1; li >= 0; li-- {
		ln := h.fillLevel(li, core, tag, write, sharedByOthers)
		if li == 0 {
			h.l1Line = ln
		}
	}
	if hitLevel == 0 {
		h.l1Line = hitLine
	}
	// A hit line may still need its dirty bit set on writes.
	if hitLine != nil && write {
		hitLine.dirty = true
		hitLine.shared = false
	}
	// Record directory occupancy only when a private fill happened; an L1
	// hit means the bit is already set.
	if h.coherent && hitLevel != 0 {
		h.noteDirectoryFill(core, tag)
	}

	return Result{Latency: uint32(latency), Level: uint8(servedBy)}
}

// fillLevel inserts the line at one level, handling eviction fallout,
// and returns the slot now holding the line.
func (h *Hierarchy) fillLevel(li, core int, tag uint64, dirty, shared bool) *line {
	inst := h.inst(li, core)
	victimTag, evicted, inserted := inst.fill(tag, dirty, shared)
	if !evicted || victimTag == tag {
		return inserted
	}
	// Inclusive hierarchy: evicting from a lower level back-invalidates
	// the levels above it.
	if h.cfg.Levels[li].Shared {
		// Shared level eviction: kick the line out of every core that
		// holds it (per the directory), then drop the directory entry.
		// Without coherence (one core) there is no directory; probe the
		// single core's private levels directly — invalidate is
		// presence-checked, so the counters move exactly as before.
		if !h.coherent {
			kicked, anyDirty := false, false
			for lj := li - 1; lj >= 0; lj-- {
				if dirtyWB, present := h.inst(lj, core).invalidate(victimTag); present {
					kicked = true
					h.invalidations++
					if dirtyWB {
						anyDirty = true
						h.writeBacks++
					}
				}
			}
			if kicked {
				h.backInvalidations++
				h.emitCoherence(CoherenceBackInvalidate, victimTag, core, core, anyDirty)
			}
		} else if mask := h.directory.get(victimTag); mask != 0 {
			for c := 0; c < h.numCores; c++ {
				if mask&(1<<uint(c)) == 0 {
					continue
				}
				kicked, anyDirty := false, false
				for lj := li - 1; lj >= 0; lj-- {
					if dirtyWB, present := h.inst(lj, c).invalidate(victimTag); present {
						kicked = true
						h.invalidations++
						if dirtyWB {
							anyDirty = true
							h.writeBacks++
						}
					}
				}
				if kicked {
					h.backInvalidations++
					h.emitCoherence(CoherenceBackInvalidate, victimTag, core, c, anyDirty)
				}
			}
			h.directory.delete(victimTag)
		}
	} else {
		// Private level eviction: back-invalidate this core's levels
		// above, and clear the directory bit if this was the deepest
		// private level.
		for lj := li - 1; lj >= 0; lj-- {
			if dirtyWB, present := h.inst(lj, core).invalidate(victimTag); present {
				h.invalidations++
				if dirtyWB {
					h.writeBacks++
				}
			}
		}
		if h.coherent && li == h.lastPriv {
			h.clearDirectoryBit(core, victimTag)
		}
	}
	return inserted
}

// heldByOthers reports whether any other core's private hierarchy may hold
// the line. Only called on coherent (multi-core) hierarchies.
func (h *Hierarchy) heldByOthers(core int, tag uint64) bool {
	mask := h.directory.get(tag)
	return mask&^(1<<uint(core)) != 0
}

// invalidateOthers removes the line from every other core's private
// levels (a write-invalidate probe).
func (h *Hierarchy) invalidateOthers(core int, tag uint64) {
	mask := h.directory.get(tag)
	if mask == 0 {
		return
	}
	others := mask &^ (1 << uint(core))
	if others == 0 {
		return
	}
	for c := 0; c < h.numCores; c++ {
		if others&(1<<uint(c)) == 0 {
			continue
		}
		kicked, anyDirty := false, false
		for li := range h.levels {
			if h.cfg.Levels[li].Shared {
				continue
			}
			if dirtyWB, present := h.inst(li, c).invalidate(tag); present {
				kicked = true
				h.invalidations++
				if dirtyWB {
					anyDirty = true
					h.writeBacks++
				}
			}
		}
		if kicked {
			h.writeInvalidations++
			h.emitCoherence(CoherenceWriteInvalidate, tag, core, c, anyDirty)
		}
	}
	h.directory.set(tag, mask&(1<<uint(core)))
}

// downgradeOthers marks the line shared in every other core's private
// levels, so a later write hit there consults the directory.
func (h *Hierarchy) downgradeOthers(core int, tag uint64) {
	mask := h.directory.get(tag) &^ (1 << uint(core))
	if mask == 0 {
		return
	}
	for c := 0; c < h.numCores; c++ {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		demoted := false
		for li := range h.levels {
			if h.cfg.Levels[li].Shared {
				continue
			}
			if w := h.inst(li, c).peek(tag); w != nil {
				w.shared = true
				demoted = true
			}
		}
		if demoted {
			h.downgrades++
			h.emitCoherence(CoherenceDowngrade, tag, core, c, false)
		}
	}
}

func (h *Hierarchy) noteDirectoryFill(core int, tag uint64) {
	h.directory.or(tag, 1<<uint(core))
}

func (h *Hierarchy) clearDirectoryBit(core int, tag uint64) {
	h.directory.clearBit(tag, 1<<uint(core))
}

// --- Statistical fast-forward aging ---------------------------------------

// EnableDecay arms line aging for statistical (sampled-window) runs: each
// level treats lines untouched for more than its capacity in lines as
// evicted (see level.decay). Exact runs never call this, so their lookup
// path is unchanged. Idempotent.
func (h *Hierarchy) EnableDecay() {
	for _, insts := range h.levels {
		for _, inst := range insts {
			inst.decay = inst.nsets * uint64(inst.cfg.Assoc)
		}
	}
}

// Age accounts for skipped accesses by one core during a statistical
// fast-forward: each level's LRU clock advances by the number of those
// accesses the level would have seen, estimated from the level's observed
// share of traffic so far (L1 sees every access; deeper levels see their
// running miss-chain fraction). Combined with EnableDecay, lines the
// skipped accesses would plausibly have evicted then age out on their
// next touch instead of serving stale hits.
func (h *Hierarchy) Age(core int, skipped uint64) {
	l1 := h.inst(0, core)
	for li := range h.levels {
		inst := h.inst(li, core)
		est := skipped
		if li > 0 {
			base := l1.Accesses
			if h.cfg.Levels[li].Shared {
				// Shared instances aggregate every core's traffic; scale
				// by the whole hierarchy's demand stream instead.
				base = h.demandAccesses
			}
			if base == 0 {
				continue
			}
			est = skipped * inst.Accesses / base
		}
		inst.lruClock += est
	}
}

// --- Prefetcher ----------------------------------------------------------

const (
	strideTableSize = 256
	strideConfMin   = 2
)

type strideEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     int8
}

// strideTable is a per-core, per-PC stride predictor, direct-mapped like
// hardware reference-prediction tables.
type strideTable struct {
	entries [strideTableSize]strideEntry
}

func newStrideTable() *strideTable { return &strideTable{} }

// trainPrefetcher updates the predictor with a demand access and issues
// prefetches once a stride is confirmed.
func (h *Hierarchy) trainPrefetcher(core int, pc, addr uint64) {
	t := h.prefetchers[core]
	e := &t.entries[(pc>>2)%strideTableSize]
	if e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr}
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if stride == 0 {
		return
	}
	if stride == e.stride {
		if e.conf < strideConfMin {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		return
	}
	if e.conf < strideConfMin {
		return
	}
	// Confident: prefetch the next PrefetchDegree strides into the
	// hierarchy (as non-demand fills ending at L2, the common design).
	for d := 1; d <= h.cfg.PrefetchDegree; d++ {
		next := uint64(int64(addr) + stride*int64(d))
		tag := next >> h.lineShift
		if tag == addr>>h.lineShift {
			continue
		}
		if h.prefetchPresent(core, tag) {
			continue
		}
		h.PrefetchIssued++
		h.prefetchFill(core, tag)
	}
}

// prefetchPresent checks whether the line is already anywhere in the
// core's view of the hierarchy.
func (h *Hierarchy) prefetchPresent(core int, tag uint64) bool {
	if h.deep != nil {
		// The hierarchy is inclusive (levels are inclusive of the levels
		// above them), so a line present anywhere in the core's view is
		// present in its deepest level: one peek decides. The verified
		// shadow answers the recurring streaming case — the same few
		// lines ahead of a confident stride, re-checked every access —
		// in one comparison.
		e := &h.deep[core][tag&hotMask]
		if e.tag == tag && e.ln != nil && e.ln.valid && e.ln.tag == tag {
			return true
		}
		ln := h.inst(len(h.levels)-1, core).peek(tag)
		if ln == nil {
			return false
		}
		h.deep[core][tag&hotMask] = hotEntry{tag: tag, ln: ln}
		return true
	}
	for li := range h.levels {
		if h.inst(li, core).peek(tag) != nil {
			return true
		}
	}
	return false
}

// prefetchFill inserts the line into the second-closest level and below
// (prefetching into L1 would pollute it; hardware prefetchers typically
// target L2).
func (h *Hierarchy) prefetchFill(core int, tag uint64) {
	start := 1
	if len(h.levels) == 1 {
		start = 0
	}
	shared := h.coherent && h.heldByOthers(core, tag)
	for li := len(h.levels) - 1; li >= start; li-- {
		ln := h.fillLevel(li, core, tag, false, shared)
		if h.deep != nil && li == len(h.levels)-1 {
			// Seed the prefetchPresent shadow with the slot just filled:
			// the very next access's candidate check asks about this tag,
			// and the memo answers it without re-peeking the deepest level.
			h.deep[core][tag&hotMask] = hotEntry{tag: tag, ln: ln}
		}
	}
	if h.coherent && h.lastPriv >= start {
		h.noteDirectoryFill(core, tag)
	}
}

// --- Stats ----------------------------------------------------------------

// LevelStats aggregates one level's counters across instances.
type LevelStats struct {
	Name     string
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// MissRatio returns Misses/Accesses, or 0 for idle levels.
func (s LevelStats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Stats is a point-in-time snapshot of the hierarchy's counters.
type Stats struct {
	Levels         []LevelStats
	DemandAccesses uint64
	WriteBacks     uint64
	// Invalidations counts per level per core (the historical bookkeeping
	// counter); the three counters below count one per victim core per
	// protocol event, split by kind, so Invalidations >=
	// WriteInvalidations + BackInvalidations.
	Invalidations      uint64
	WriteInvalidations uint64
	BackInvalidations  uint64
	Downgrades         uint64
	PrefetchIssued     uint64
	TLB                TLBStats
}

// Stats snapshots all counters, summing private instances per level.
func (h *Hierarchy) Stats() Stats {
	st := Stats{
		DemandAccesses:     h.demandAccesses,
		WriteBacks:         h.writeBacks,
		Invalidations:      h.invalidations,
		WriteInvalidations: h.writeInvalidations,
		BackInvalidations:  h.backInvalidations,
		Downgrades:         h.downgrades,
		PrefetchIssued:     h.PrefetchIssued,
	}
	for li, insts := range h.levels {
		ls := LevelStats{Name: h.cfg.Levels[li].Name}
		for _, inst := range insts {
			ls.Accesses += inst.Accesses
			ls.Hits += inst.Hits
			ls.Misses += inst.Misses
		}
		st.Levels = append(st.Levels, ls)
	}
	for _, t := range h.tlbs {
		st.TLB.Accesses += t.Accesses
		st.TLB.Misses += t.Misses
	}
	return st
}

// Level returns the stats of the named level, or a zero value.
func (s Stats) Level(name string) LevelStats {
	for _, l := range s.Levels {
		if l.Name == name {
			return l
		}
	}
	return LevelStats{Name: name}
}
