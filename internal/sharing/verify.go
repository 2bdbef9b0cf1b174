package sharing

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/vm"
)

// verify.go is the dynamic half of the sharing analyzer: it reruns the
// workload with (a) a memory-access observer building a per-address
// writer table — the ground truth for "writes are private" claims — and
// (b) a coherence observer on the cache directory attributing
// write-invalidation traffic back to (object, field) — the ground truth
// for false-sharing findings. Observations are kept per phase because
// every static claim is scoped to one phase; phases without thread roles
// are executed but not recorded.

// gfKey identifies one (global, field) bucket; field -1 covers the whole
// object.
type gfKey struct{ global, field int }

// lineKey attributes coherence traffic: one cache line plus the
// (global, field) the *cause address* of the event resolved to.
type lineKey struct {
	global, field int
	tag           uint64
}

// glKey identifies one cache line of one global.
type glKey struct {
	global int
	tag    uint64
}

// PhaseObs is the dynamic observation of one phase.
type PhaseObs struct {
	Phase    int
	HasRoles bool

	// FieldWrites counts writes per (global, field); GlobalWrites counts
	// all writes into each global regardless of field resolution.
	FieldWrites  map[gfKey]uint64
	GlobalWrites map[int]uint64

	// writers maps each written address to its writing thread (spec
	// index), or multiWriter once a second thread writes it. Typed fields
	// are recorded both under their own key and under (global, -1) so
	// whole-object claims check against every write in the object.
	writers map[gfKey]map[uint64]int32

	// LineCauses is, per (global, field, line), the mask of cores whose
	// writes invalidated another core's copy of that line.
	LineCauses map[lineKey]uint64

	// lineWriters is, per (global, line), the mask of cores that wrote the
	// line; fieldLines records which lines each (global, field) wrote.
	// Together they ground the false-sharing verdict: a line several cores
	// wrote that also drew invalidation traffic.
	lineWriters map[glKey]uint64
	fieldLines  map[gfKey]map[uint64]bool
	// lineInv counts write-invalidation events per (global, line),
	// regardless of which field the cause address resolved to.
	lineInv map[glKey]uint64
}

const multiWriter int32 = -2

func newPhaseObs(phase int, hasRoles bool) *PhaseObs {
	return &PhaseObs{
		Phase:        phase,
		HasRoles:     hasRoles,
		FieldWrites:  make(map[gfKey]uint64),
		GlobalWrites: make(map[int]uint64),
		writers:      make(map[gfKey]map[uint64]int32),
		LineCauses:   make(map[lineKey]uint64),
		lineWriters:  make(map[glKey]uint64),
		fieldLines:   make(map[gfKey]map[uint64]bool),
		lineInv:      make(map[glKey]uint64),
	}
}

// writtenBy records one write to addr by thread tid under key k.
func (po *PhaseObs) writtenBy(k gfKey, addr uint64, tid int32) {
	ws := po.writers[k]
	if ws == nil {
		ws = make(map[uint64]int32)
		po.writers[k] = ws
	}
	if prev, seen := ws[addr]; !seen {
		ws[addr] = tid
	} else if prev != tid && prev != multiWriter {
		ws[addr] = multiWriter
	}
}

// MultiWriterAddrs returns the addresses of (global, field) written by
// more than one thread during the phase, in ascending order.
func (po *PhaseObs) MultiWriterAddrs(global, field int) []uint64 {
	var addrs []uint64
	for addr, w := range po.writers[gfKey{global, field}] {
		if w == multiWriter {
			addrs = append(addrs, addr)
		}
	}
	sortU64(addrs)
	return addrs
}

// WritesTo returns the observed write count for a claim's (global,
// field): the per-field count, or every write into the global for
// whole-object claims.
func (po *PhaseObs) WritesTo(global, field int) uint64 {
	if field < 0 {
		return po.GlobalWrites[global]
	}
	return po.FieldWrites[gfKey{global, field}]
}

// ContendedLine returns the lowest line of the global that (a) received
// writes to the given field, (b) was written by at least two distinct
// cores — through any field — and (c) drew write-invalidation traffic,
// with the mask of writer cores; ok is false when there is none. The
// writer mask comes from the access observer, not the cause-core mask of
// the coherence events: with exactly two writers only the second write
// invalidates, so cause cores alone undercount the contenders.
func (po *PhaseObs) ContendedLine(global, field int) (tag uint64, mask uint64, ok bool) {
	for t := range po.fieldLines[gfKey{global, field}] {
		k := glKey{global, t}
		m := po.lineWriters[k]
		if popcount(m) < 2 || po.lineInv[k] == 0 {
			continue
		}
		if !ok || t < tag {
			tag, mask, ok = t, m, true
		}
	}
	return tag, mask, ok
}

// RunObs is the full dynamic observation of one verification run.
type RunObs struct {
	Phases []*PhaseObs
}

// PhaseAt returns the observation of phase pi, or nil.
func (o *RunObs) PhaseAt(pi int) *PhaseObs {
	for _, po := range o.Phases {
		if po.Phase == pi {
			return po
		}
	}
	return nil
}

// Verifier observes one run. It implements both vm.AccessObserver and
// cache.CoherenceObserver; it charges no overhead cycles, so the
// verification run's timing equals an unobserved run.
type Verifier struct {
	p     *prog.Program
	space *mem.Space

	lineShift  uint
	rolePhases map[int]bool
	phaseCores [][]int // per phase, spec index -> pinned core
	cores      []int   // current phase's map
	cur        *PhaseObs
	phases     []*PhaseObs
}

// NewVerifier builds a verifier for the program's phase list. Attach it
// to the machine (Observer + coherence observer) and call BeginPhase
// before running each phase.
func NewVerifier(p *prog.Program, phases [][]vm.ThreadSpec, lineSize int) *Verifier {
	v := &Verifier{p: p, rolePhases: make(map[int]bool)}
	for lineSize > 1 {
		v.lineShift++
		lineSize >>= 1
	}
	for _, r := range DeriveRoles(phases) {
		v.rolePhases[r.Phase] = true
	}
	for _, ph := range phases {
		cores := make([]int, len(ph))
		for si, sp := range ph {
			cores[si] = sp.Core
		}
		v.phaseCores = append(v.phaseCores, cores)
	}
	return v
}

// BeginPhase switches recording to phase pi.
func (v *Verifier) BeginPhase(pi int) {
	v.cur = newPhaseObs(pi, v.rolePhases[pi])
	v.cores = nil
	if pi < len(v.phaseCores) {
		v.cores = v.phaseCores[pi]
	}
	v.phases = append(v.phases, v.cur)
}

// OnAccess implements vm.AccessObserver: it maintains the writer table
// during role phases. The event is scratch-reused by the machine, so
// everything needed is copied out here.
func (v *Verifier) OnAccess(ev *vm.MemEvent) uint64 {
	po := v.cur
	if po == nil || !po.HasRoles || !ev.Write {
		return 0
	}
	g, f, ok := v.attr(ev.EA)
	if !ok {
		return 0
	}
	po.GlobalWrites[g]++
	po.FieldWrites[gfKey{g, f}]++
	po.writtenBy(gfKey{g, f}, ev.EA, int32(ev.TID))
	if f >= 0 {
		po.writtenBy(gfKey{g, -1}, ev.EA, int32(ev.TID))
	}
	core := ev.TID // spec order doubles as core when unpinned
	if ev.TID < len(v.cores) {
		core = v.cores[ev.TID]
	}
	tag := ev.EA >> v.lineShift
	po.lineWriters[glKey{g, tag}] |= 1 << uint(core)
	po.noteFieldLine(gfKey{g, f}, tag)
	if f >= 0 {
		po.noteFieldLine(gfKey{g, -1}, tag)
	}
	return 0
}

// noteFieldLine records that (global, field) wrote a byte of line tag.
func (po *PhaseObs) noteFieldLine(k gfKey, tag uint64) {
	fl := po.fieldLines[k]
	if fl == nil {
		fl = make(map[uint64]bool)
		po.fieldLines[k] = fl
	}
	fl[tag] = true
}

// OnCoherence implements cache.CoherenceObserver: write-invalidations
// whose cause address resolves to a global are attributed to its field
// and tallied per line. Back-invalidations (eviction fallout, Addr 0)
// and downgrades say nothing about write-write contention and are
// ignored.
func (v *Verifier) OnCoherence(ev *cache.CoherenceEvent) {
	po := v.cur
	if po == nil || !po.HasRoles || ev.Kind != cache.CoherenceWriteInvalidate || ev.Addr == 0 {
		return
	}
	g, f, ok := v.attr(ev.Addr)
	if !ok {
		return
	}
	po.LineCauses[lineKey{global: g, field: f, tag: ev.Tag}] |= 1 << uint(ev.Core)
	po.lineInv[glKey{global: g, tag: ev.Tag}]++
}

// attr resolves an address to (global index, field index). Field is -1
// for untyped globals and for bytes falling into padding.
func (v *Verifier) attr(addr uint64) (global, field int, ok bool) {
	o := v.space.FindObject(addr)
	if o == nil || o.GlobalIx < 0 {
		return 0, 0, false
	}
	global, field = o.GlobalIx, -1
	st := v.p.TypeOfGlobal(global)
	if st == nil || st.Size <= 0 {
		return global, field, true
	}
	off := int((addr - o.Base) % uint64(st.Size))
	for fi := range st.Fields {
		pf := &st.Fields[fi]
		if off >= pf.Offset && off < pf.Offset+pf.Size {
			field = fi
			break
		}
	}
	return global, field, true
}

// VerifyRun executes the phase list on a fresh machine with the verifier
// attached — the same one-machine-across-phases shape the profiler's
// runner uses — and returns the per-phase observations.
func VerifyRun(p *prog.Program, phases [][]vm.ThreadSpec, cacheCfg cache.Config) (*RunObs, error) {
	m, err := vm.NewMachine(p, cacheCfg, vm.CoresFor(phases), vm.Config{})
	if err != nil {
		return nil, err
	}
	v := NewVerifier(p, phases, cacheCfg.LineSize)
	v.space = m.Space
	m.Observer = v
	m.SetCoherenceObserver(v)
	for pi, ph := range phases {
		v.BeginPhase(pi)
		if _, err := m.Run(ph); err != nil {
			return nil, err
		}
	}
	return &RunObs{Phases: v.phases}, nil
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

func sortU64(a []uint64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
