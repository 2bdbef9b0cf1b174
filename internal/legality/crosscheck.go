package legality

// crosscheck.go is the dynamic enforcement of the static verdicts: the
// workload replays under a vm.AccessObserver that resolves every
// effective address back to its data object and checks it against the
// pass's per-instruction footprint claims. For any object judged
// SplitSafe or KeepTogether, every access must come from an instruction
// the pass attributed to that object, touching only the claimed fields —
// a violation means the static pass was unsound, and Report.Failed()
// turns it into a hard test failure. Frozen objects carry no claim and
// are not checked.

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/vm"
)

// claim is one instruction's allowed footprint on one checked object.
type claim struct {
	obj  int // analysis object id
	mask uint64
	all  bool
}

// checkedObj is the observer's per-object checking state.
type checkedObj struct {
	verdict     *ObjectVerdict
	size        uint64
	fieldOfByte []int8 // byte offset in element → field index (-1 padding)
	accesses    uint64
}

// Violation is one dynamic access that contradicts a static claim.
type Violation struct {
	IP      uint64
	Where   string
	Obj     string
	ElemOff uint64
	Size    uint8
	Msg     string
}

// maxStoredViolations caps the detail list; the count keeps running.
const maxStoredViolations = 16

// Observer checks every access against the analysis claims. It reads
// machine state as each access happens, so the machine times the run
// inline.
type Observer struct {
	a       *Analysis
	space   *mem.Space
	claims  [][]claim // indexed by (IP - TextBase) / InstrBytes
	checked map[int]*checkedObj

	accesses       uint64
	checkedCount   uint64
	violationCount uint64
	violations     []Violation
}

// NewObserver builds the claim table for a machine executing the
// analyzed program inside the given address space.
func NewObserver(a *Analysis, space *mem.Space) *Observer {
	ob := &Observer{
		a:       a,
		space:   space,
		claims:  make([][]claim, a.Program.NumInstrs()),
		checked: make(map[int]*checkedObj),
	}
	for id, v := range a.verdictOf {
		if v.Verdict == Frozen {
			continue
		}
		s := uint64(v.Type.Size)
		co := &checkedObj{verdict: v, size: s, fieldOfByte: make([]int8, s)}
		for b := uint64(0); b < s; b++ {
			co.fieldOfByte[b] = int8(fieldIdxAt(v.Type, int(b)))
		}
		ob.checked[id] = co
	}
	for ip, ia := range a.attrs {
		idx := int((ip - isa.TextBase) / isa.InstrBytes)
		if idx < 0 || idx >= len(ob.claims) {
			continue
		}
		for id, oa := range ia.objs {
			if ob.checked[id] == nil {
				continue
			}
			ob.claims[idx] = append(ob.claims[idx], claim{obj: id, mask: oa.mask, all: oa.maskAll})
		}
	}
	return ob
}

// OnAccess implements vm.AccessObserver.
func (ob *Observer) OnAccess(ev *vm.MemEvent) uint64 {
	ob.accesses++
	obj := ob.space.FindObject(ev.EA)
	if obj == nil {
		return 0
	}
	id, ok := ob.objID(obj)
	if !ok {
		return 0
	}
	co := ob.checked[id]
	if co == nil {
		return 0
	}
	co.accesses++
	ob.checkedCount++

	off := (ev.EA - obj.Base) % co.size
	var touched uint64
	for j := uint64(0); j < uint64(ev.Size); j++ {
		if fi := co.fieldOfByte[(off+j)%co.size]; fi >= 0 {
			touched |= 1 << uint(fi)
		}
	}

	idx := int((ev.IP - isa.TextBase) / isa.InstrBytes)
	var allowed uint64
	found := false
	if idx >= 0 && idx < len(ob.claims) {
		for _, c := range ob.claims[idx] {
			if c.obj == id {
				found = true
				if c.all {
					return 0
				}
				allowed = c.mask
				break
			}
		}
	}
	switch {
	case !found:
		ob.violate(ev, co, off, "access not attributed to this object by the static pass")
	case touched&^allowed != 0:
		ob.violate(ev, co, off, fmt.Sprintf(
			"access touches field mask %#x but the static footprint allows %#x", touched, allowed))
	}
	return 0
}

func (ob *Observer) violate(ev *vm.MemEvent, co *checkedObj, off uint64, msg string) {
	ob.violationCount++
	if len(ob.violations) >= maxStoredViolations {
		return
	}
	ob.violations = append(ob.violations, Violation{
		IP: ev.IP, Where: ob.a.where(ev.IP), Obj: co.verdict.Name,
		ElemOff: off, Size: ev.Size, Msg: msg,
	})
}

// objID maps a runtime memory object to an analysis object id.
func (ob *Observer) objID(obj *mem.Object) (int, bool) {
	if obj.GlobalIx >= 0 {
		if obj.GlobalIx >= len(ob.a.objOfGlobal) {
			return 0, false
		}
		return ob.a.objOfGlobal[obj.GlobalIx], true
	}
	if obj.AllocIP != 0 {
		id, ok := ob.a.objOfAlloc[obj.AllocIP]
		return id, ok
	}
	return 0, false
}

// ObjCheck summarizes the dynamic coverage of one checked object.
type ObjCheck struct {
	Name     string
	Verdict  Verdict
	Accesses uint64
}

// Report is the outcome of one cross-check run.
type Report struct {
	Accesses       uint64
	Checked        uint64
	ViolationCount uint64
	Violations     []Violation // first maxStoredViolations, in order
	Objects        []ObjCheck  // checked objects in verdict-listing order
}

// Failed reports whether any dynamic access contradicted a static claim.
func (r *Report) Failed() bool { return r.ViolationCount > 0 }

// RenderText writes the cross-check summary.
func (r *Report) RenderText(w io.Writer) {
	fmt.Fprintf(w, "legality cross-check: %d accesses, %d checked against claims, %d violations\n",
		r.Accesses, r.Checked, r.ViolationCount)
	for _, oc := range r.Objects {
		fmt.Fprintf(w, "  %s (%s): %d accesses\n", oc.Name, oc.Verdict.tag(), oc.Accesses)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %s: %s elem+%d size %d: %s\n",
			v.Where, v.Obj, v.ElemOff, v.Size, v.Msg)
	}
	if !r.Failed() {
		fmt.Fprintln(w, "  LEGALITY-OK")
	}
}

// Report assembles the observer's counters into a Report.
func (ob *Observer) Report() *Report {
	rep := &Report{
		Accesses:       ob.accesses,
		Checked:        ob.checkedCount,
		ViolationCount: ob.violationCount,
		Violations:     ob.violations,
	}
	// List checked objects in the analysis's deterministic object order.
	for _, v := range ob.a.Objects {
		for id, co := range ob.checked {
			if co.verdict == v {
				_ = id
				rep.Objects = append(rep.Objects, ObjCheck{Name: v.Name, Verdict: v.Verdict, Accesses: co.accesses})
				break
			}
		}
	}
	return rep
}

// CrossCheck replays the program (entry function when phases is empty)
// under the checking observer and returns the report. The machine runs
// the full cache model with every access delivered to the observer.
func CrossCheck(a *Analysis, cacheCfg cache.Config, phases [][]vm.ThreadSpec) (*Report, error) {
	m, err := vm.NewMachine(a.Program, cacheCfg, vm.CoresFor(phases), vm.Config{})
	if err != nil {
		return nil, err
	}
	ob := NewObserver(a, m.Space)
	m.Observer = ob
	if _, err := m.RunAll(phases); err != nil {
		return nil, err
	}
	return ob.Report(), nil
}
