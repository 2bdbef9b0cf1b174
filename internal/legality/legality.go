// Package legality is the transform-legality analyzer: a whole-program
// alias/escape/address-taken pass over the prog IR that decides, per
// record object, whether StructSlim's splitting advice may be applied
// mechanically. The paper applies splits by hand and leaves legality to
// the programmer; closing the loop (structslim optimize) needs a static
// proof that every access to the object is *field-local* — computed from
// the object's base plus a statically bounded offset that stays inside
// one field — before the A/B engine may run a transformed layout.
//
// The pass tracks provenance + congruence values (see value.go) through
// registers, calls, and memory: pointer facts stored to memory are kept
// in a field-sensitive store environment so pointer chases (TSP's tour,
// Health's arena queues) re-attribute on load. Accesses the pass can
// attribute contribute a per-field footprint; the verdict lattice is
//
//	SplitSafe      every attributed access touches exactly one field
//	KeepTogether   some access's footprint spans several fields (block
//	               copies, boundary-crossing loads, sub-element strides):
//	               those fields must stay in one split group
//	Frozen         a field address escaped into opaque register flows
//	               (mul/div/bit/float ops on pointers) or the pass could
//	               not attribute an access at all: no split is proven safe
//
// Soundness rests on the C object-provenance rule — address arithmetic
// cannot move a pointer between objects — plus the absence of forged
// (integer-literal) pointers. Both are enforced dynamically: CrossCheck
// replays the workload under a vm.AccessObserver and hard-fails if any
// access contradicts a SplitSafe or KeepTogether claim.
package legality

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/staticlint"
)

// Verdict is the per-object legality verdict.
type Verdict uint8

// Verdict levels, ordered from permissive to restrictive.
const (
	SplitSafe Verdict = iota
	KeepTogether
	Frozen
)

func (v Verdict) String() string {
	switch v {
	case SplitSafe:
		return "split-safe"
	case KeepTogether:
		return "keep-together"
	case Frozen:
		return "frozen"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Reason explains one contribution to an object's verdict. Field is the
// record field index the reason anchors to (-1 for object-level
// reasons); Other is the partner field of a keep-together pair (-1
// otherwise). Reasons are sorted by (Field, FnID, IP) so rendered output
// is byte-stable.
type Reason struct {
	Field int
	Other int
	FnID  int
	IP    uint64
	Where string // file:line of the offending instruction ("" for program-level)
	Msg   string
}

// ObjectVerdict is the verdict for one record object (a typed global or
// a typed heap allocation site).
type ObjectVerdict struct {
	// GlobalIx is the program global index, or -1 for heap objects;
	// AllocIP is the allocation site for heap objects.
	GlobalIx int
	AllocIP  uint64
	Name     string // symbol name, or heap@file:line
	TypeID   int
	Type     *prog.StructType

	Verdict Verdict
	// Pairs lists field-index pairs that must stay in the same split
	// group (i < j, sorted, deduplicated). Empty for SplitSafe.
	Pairs [][2]int
	// AllFields marks footprints the pass could only bound to "somewhere
	// in the element": the whole record must stay together.
	AllFields bool
	Reasons   []Reason
	// Streams is the number of distinct memory instructions the pass
	// attributed to this object.
	Streams int
}

// PairNames renders the keep-together pairs as field-name pairs.
func (v *ObjectVerdict) PairNames() [][2]string {
	out := make([][2]string, 0, len(v.Pairs))
	for _, p := range v.Pairs {
		out = append(out, [2]string{v.Type.Fields[p[0]].Name, v.Type.Fields[p[1]].Name})
	}
	return out
}

// objInfo is one row of the analysis object table: every global and
// every allocation site, typed or not, in deterministic id order
// (globals by index, then allocation sites by IP).
type objInfo struct {
	global  int // ≥ 0 for globals, -1 for heap sites
	allocIP uint64
	name    string
	typeID  int
	st      *prog.StructType // nil when untyped
	size    int64            // global size; 0 for heap sites (size varies)
}

// Analysis is the full legality analysis of one program.
type Analysis struct {
	Program *prog.Program
	// Objects holds the verdicts for every record-typed object, sorted
	// by object id (globals by index, then allocation sites by IP).
	Objects []*ObjectVerdict
	// Demoted lists program-level demotions: accesses the pass could not
	// attribute to any object (forged or fully unknown addresses) and
	// fixpoint-budget exhaustion. Any entry freezes every record object.
	Demoted []Reason

	objs        []objInfo
	objOfGlobal []int
	objOfAlloc  map[uint64]int
	verdictOf   map[int]*ObjectVerdict // object id → verdict (record objects)
	attrs       map[uint64]*ipAttr     // per memory-instruction attribution
}

// AnalyzeProgram runs the legality pass. The staticlint analysis is
// consulted for Exact affine streams (its effective-address resolver and
// IV dataflow are strictly more precise inside the affine template); sa
// may be nil, in which case it is computed here.
func AnalyzeProgram(p *prog.Program, sa *staticlint.Analysis) (*Analysis, error) {
	if p == nil || !p.Finalized() {
		return nil, fmt.Errorf("legality: program not finalized")
	}
	if sa == nil {
		var err error
		sa, err = staticlint.AnalyzeProgram(p)
		if err != nil {
			return nil, err
		}
	}
	a := &Analysis{
		Program:    p,
		objOfAlloc: make(map[uint64]int),
		verdictOf:  make(map[int]*ObjectVerdict),
	}
	a.buildObjectTable(p)

	az := newAnalyzer(p, sa, a)
	col := az.solve()
	a.attrs = col.attrs
	a.buildVerdicts(col)
	return a, nil
}

// buildObjectTable enumerates globals and allocation sites.
func (a *Analysis) buildObjectTable(p *prog.Program) {
	a.objOfGlobal = make([]int, len(p.Globals))
	for gi, g := range p.Globals {
		var st *prog.StructType
		if g.TypeID >= 0 && g.TypeID < len(p.Types) {
			st = p.Types[g.TypeID]
		}
		a.objOfGlobal[gi] = len(a.objs)
		a.objs = append(a.objs, objInfo{
			global: gi, allocIP: 0, name: g.Name, typeID: g.TypeID, st: st, size: g.Size,
		})
	}
	// Allocation sites in IP order.
	var sites []uint64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == isa.Alloc {
					sites = append(sites, b.Instrs[i].IP)
				}
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, ip := range sites {
		tid := -1
		if t, ok := p.AllocSiteType[ip]; ok {
			tid = t
		}
		var st *prog.StructType
		if tid >= 0 && tid < len(p.Types) {
			st = p.Types[tid]
		}
		name := fmt.Sprintf("heap@%#x", ip)
		if file, line := p.LineOf(ip); file != "" {
			name = fmt.Sprintf("heap@%s:%d", file, line)
		}
		a.objOfAlloc[ip] = len(a.objs)
		a.objs = append(a.objs, objInfo{global: -1, allocIP: ip, name: name, typeID: tid, st: st})
	}
}

// where renders an IP as file:line.
func (a *Analysis) where(ip uint64) string {
	if file, line := a.Program.LineOf(ip); file != "" {
		return fmt.Sprintf("%s:%d", file, line)
	}
	return fmt.Sprintf("ip %#x", ip)
}
