package legality

// dataflow.go is the fixpoint engine of the legality pass: a forward,
// flow-sensitive propagation of provenance + congruence values through
// every function's registers, a field-sensitive store environment shared
// across functions (phase entry points are not reachable from main, so
// memory is the only channel between them — modelling it order-free is
// sound), and return-value propagation across calls. The engine sweeps
// functions in id order, each to its own fixpoint under cfg.Solve, until
// memory and return values stop changing; both fixpoints are bounded,
// and budget exhaustion demotes honestly (every record object freezes).

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/staticlint"
	"repro/internal/stride"
)

// maxProgramSweeps bounds the whole-program outer fixpoint; cfg.Solve
// bounds each per-function inner one.
const maxProgramSweeps = 40

// resid is one attributed footprint contribution: the access started at
// byte offset c + m·Z from the object base (m == 0: exactly c).
type resid struct {
	c int64
	m uint64
}

// objAttr is the footprint one memory instruction has on one object.
type objAttr struct {
	all      bool
	residues []resid

	// Filled by the verdict pass for the dynamic cross-check: the field
	// mask this instruction may touch on this object.
	mask    uint64
	maskAll bool
}

func (oa *objAttr) add(r resid) {
	for _, e := range oa.residues {
		if e == r {
			return
		}
	}
	oa.residues = append(oa.residues, r)
}

// ipAttr is the full attribution of one Load/Store instruction.
type ipAttr struct {
	ip   uint64
	fnID int
	size uint8
	objs map[int]*objAttr
}

func (ia *ipAttr) forObj(id int) *objAttr {
	oa := ia.objs[id]
	if oa == nil {
		oa = &objAttr{}
		ia.objs[id] = oa
	}
	return oa
}

// freezeEv records a pointer escaping into an opaque flow or to memory.
type freezeEv struct {
	objs objSet
	fnID int
	ip   uint64
	msg  string
}

// collector gathers attribution facts during the final (post-fixpoint)
// sweep.
type collector struct {
	attrs   map[uint64]*ipAttr
	freezes []freezeEv
	demoted []Reason // program-level: freezes every record object
}

func (col *collector) attr(in *isa.Instr, fnID int) *ipAttr {
	ia := col.attrs[in.IP]
	if ia == nil {
		ia = &ipAttr{ip: in.IP, fnID: fnID, size: in.Size, objs: make(map[int]*objAttr)}
		col.attrs[in.IP] = ia
	}
	return ia
}

func (col *collector) freeze(objs objSet, fnID int, ip uint64, msg string) {
	if objs.empty() {
		return
	}
	for _, ev := range col.freezes {
		if ev.ip == ip && ev.msg == msg && ev.objs.equal(objs) {
			return
		}
	}
	col.freezes = append(col.freezes, freezeEv{objs: objs, fnID: fnID, ip: ip, msg: msg})
}

func (col *collector) demoteAll(fnID int, ip uint64, msg string) {
	for _, r := range col.demoted {
		if r.IP == ip && r.Msg == msg {
			return
		}
	}
	col.demoted = append(col.demoted, Reason{Field: -1, Other: -1, FnID: fnID, IP: ip, Msg: msg})
}

// memEntry is one tracked store: values written to offsets c + m·Z (size
// bytes each) of its object.
type memEntry struct {
	c    int64
	m    uint64
	size uint8
	v    value
}

// memEnv is the field-sensitive store environment. Every store is
// tracked; a load joins the values of all overlapping entries of the
// objects its address may point into. The "anywhere" bucket holds values
// stored through addresses the pass could not attribute at all.
type memEnv struct {
	byObj    map[int][]memEntry
	anywhere value
	anySet   bool
}

func newMemEnv() *memEnv {
	return &memEnv{byObj: make(map[int][]memEntry)}
}

// store records a write; reports whether the environment changed.
func (me *memEnv) store(obj int, c int64, m uint64, size uint8, v value) bool {
	es := me.byObj[obj]
	for i := range es {
		if es[i].c == c && es[i].m == m && es[i].size == size {
			j := join(es[i].v, v)
			if j.equal(es[i].v) {
				return false
			}
			es[i].v = j
			return true
		}
	}
	me.byObj[obj] = append(es, memEntry{c: c, m: m, size: size, v: v})
	return true
}

func (me *memEnv) storeAnywhere(v value) bool {
	if !me.anySet {
		me.anywhere = v
		me.anySet = true
		return true
	}
	j := join(me.anywhere, v)
	if j.equal(me.anywhere) {
		return false
	}
	me.anywhere = j
	return true
}

// load joins the values of every entry of objs overlapping [c+m·Z,
// c+m·Z+size). found reports whether any entry (or the anywhere bucket)
// contributed; a not-found load reads never-written memory (zero).
func (me *memEnv) load(objs objSet, c int64, m uint64, size uint8) (value, bool) {
	res := value{}
	found := false
	objs.each(func(id int) {
		for _, e := range me.byObj[id] {
			if locOverlap(c, m, uint64(size), e.c, e.m, uint64(e.size)) {
				if !found {
					res, found = e.v, true
				} else {
					res = join(res, e.v)
				}
			}
		}
	})
	if me.anySet {
		if !found {
			return me.anywhere, true
		}
		res = join(res, me.anywhere)
	}
	return res, found
}

// locOverlap reports whether the offset sets c1+m1·Z (s1 bytes wide) and
// c2+m2·Z (s2 bytes wide) can intersect. With both exact it is interval
// intersection; otherwise both classes are projected onto the circle of
// circumference g = gcd(m1, m2) (an over-approximation) and the two arcs
// are tested for overlap.
func locOverlap(c1 int64, m1, s1 uint64, c2 int64, m2, s2 uint64) bool {
	if m1 == 0 && m2 == 0 {
		return c1 < c2+int64(s2) && c2 < c1+int64(s1)
	}
	g := m1
	if g == 0 {
		g = m2
	} else if m2 != 0 {
		g = stride.GCD(m1, m2)
	}
	if s1+s2 >= g {
		return true
	}
	d := umod64(c2-c1, g)
	return d < s1 || g-d < s2
}

// state is one abstract register file.
type state []value

func newEntryState() state {
	st := make(state, isa.NumRegs)
	for i := range st {
		st[i] = unknown()
	}
	st[isa.RZ] = exact(0)
	return st
}

func (st state) set(r isa.Reg, v value) {
	if r == isa.RZ {
		return
	}
	st[r] = v
}

// analyzer runs the whole-program fixpoint.
type analyzer struct {
	p  *prog.Program
	sa *staticlint.Analysis
	a  *Analysis

	mem    *memEnv
	rets   []value
	seen   []bool // rets[fn] valid
	graphs []*cfg.Graph

	globalBase []uint64
	dirty      bool // outer-fixpoint change flag

	demotions []Reason // fixpoint-budget demotions, merged into the collector
}

func newAnalyzer(p *prog.Program, sa *staticlint.Analysis, a *Analysis) *analyzer {
	return &analyzer{
		p:          p,
		sa:         sa,
		a:          a,
		mem:        newMemEnv(),
		rets:       make([]value, len(p.Funcs)),
		seen:       make([]bool, len(p.Funcs)),
		graphs:     make([]*cfg.Graph, len(p.Funcs)),
		globalBase: staticlint.GlobalBases(p),
	}
}

// solve runs the outer fixpoint and the collect pass.
func (az *analyzer) solve() *collector {
	for _, f := range az.p.Funcs {
		az.graphs[f.ID] = cfg.Build(f)
	}
	// ins keeps each function's in-states from the latest sweep, and the
	// collect pass walks them as they are. A sweep that changed no memory
	// and no return value ran every function under the final
	// environment. When the budget runs out instead, the program-level
	// demotion below freezes every record object, so no verdict depends
	// on which unconverged states the walk sees.
	ins := make([][][]value, len(az.p.Funcs))
	converged := false
	for sweep := 0; sweep < maxProgramSweeps; sweep++ {
		az.dirty = false
		for _, f := range az.p.Funcs {
			ins[f.ID] = az.solveFunc(f)
		}
		if !az.dirty {
			converged = true
			break
		}
	}
	col := &collector{attrs: make(map[uint64]*ipAttr)}
	if !converged {
		az.demotions = append(az.demotions, Reason{
			Field: -1, Other: -1, FnID: -1,
			Msg: fmt.Sprintf("whole-program fixpoint did not converge in %d sweeps", maxProgramSweeps),
		})
	}
	col.demoted = append(col.demoted, az.demotions...)
	for _, f := range az.p.Funcs {
		az.collect(f, ins[f.ID], col)
	}
	return col
}

// solveFunc runs the per-function inner fixpoint under the current
// memory environment and returns its in-states.
func (az *analyzer) solveFunc(f *prog.Func) [][]value {
	ins, ok := cfg.Solve(az.graphs[f.ID], cfg.Flow[value]{
		Entry:    newEntryState(),
		Join:     join,
		Equal:    value.equal,
		Transfer: func(in *isa.Instr, st []value) { az.transfer(f.ID, in, st, nil) },
	})
	if !ok {
		az.noteBudget(f)
	}
	return ins
}

// collect performs one attribution sweep over a function's in-states.
func (az *analyzer) collect(f *prog.Func, ins [][]value, col *collector) {
	for b, in := range ins {
		if in == nil {
			continue // unreachable
		}
		st := slices.Clone(in)
		for i := range f.Blocks[b].Instrs {
			az.transfer(f.ID, &f.Blocks[b].Instrs[i], st, col)
		}
	}
}

func (az *analyzer) noteBudget(f *prog.Func) {
	msg := fmt.Sprintf("dataflow in %s did not converge in %d sweeps", f.Name, cfg.MaxSweeps)
	for _, r := range az.demotions {
		if r.Msg == msg {
			return
		}
	}
	az.demotions = append(az.demotions, Reason{Field: -1, Other: -1, FnID: f.ID, Msg: msg})
}

// eaOf evaluates a Load/Store effective address: Rs1 + Rs2·scale + Disp.
func (az *analyzer) eaOf(in *isa.Instr, st state) value {
	idx := mulVals(st[in.Rs2], exact(in.EffScale()))
	if st[in.Rs2].isPtr() {
		// An index register holding a pointer is address arithmetic the
		// resolver cannot invert.
		idx = opaquePtr(st[in.Rs2].objs)
	}
	return addVals(addVals(st[in.Rs1], idx), exact(in.Disp))
}

// transfer interprets one instruction over st. With col set it also
// records attributions, freezes, and demotions.
func (az *analyzer) transfer(fnID int, in *isa.Instr, st state, col *collector) {
	switch in.Op {
	case isa.Nop, isa.Jmp, isa.Br, isa.Halt:
		// no register effects

	case isa.MovI:
		st.set(in.Rd, exact(in.Imm))
	case isa.Mov:
		st.set(in.Rd, st[in.Rs1])
	case isa.Add:
		st.set(in.Rd, az.checkedAdd(st[in.Rs1], st[in.Rs2], fnID, in, col))
	case isa.AddI:
		st.set(in.Rd, addVals(st[in.Rs1], exact(in.Imm)))
	case isa.Sub:
		st.set(in.Rd, az.checkedSub(st[in.Rs1], st[in.Rs2], fnID, in, col))
	case isa.Mul:
		st.set(in.Rd, az.intOnly2(st[in.Rs1], st[in.Rs2], fnID, in, col, mulVals))
	case isa.MulI:
		if st[in.Rs1].isPtr() {
			if in.Imm == 1 {
				st.set(in.Rd, st[in.Rs1])
			} else {
				st.set(in.Rd, az.opaqued(st[in.Rs1].objs, fnID, in, col))
			}
			break
		}
		st.set(in.Rd, mulVals(st[in.Rs1], exact(in.Imm)))
	case isa.Shl:
		st.set(in.Rd, az.intOnly2(st[in.Rs1], st[in.Rs2], fnID, in, col, shlVals))
	case isa.Div, isa.Rem, isa.And, isa.Or, isa.Xor, isa.Shr,
		isa.FAdd, isa.FSub, isa.FMul, isa.FDiv:
		st.set(in.Rd, az.intOnly2(st[in.Rs1], st[in.Rs2], fnID, in, col, nil))
	case isa.FSqrt, isa.CvtIF, isa.CvtFI:
		v := st[in.Rs1]
		if v.isPtr() {
			st.set(in.Rd, az.opaqued(v.objs, fnID, in, col))
		} else {
			st.set(in.Rd, unknown())
		}

	case isa.Load:
		ea := az.eaOf(in, st)
		if col != nil {
			az.recordAccess(fnID, in, ea, col)
		}
		st.set(in.Rd, az.loadMem(ea, in.Size))
	case isa.Store:
		ea := az.eaOf(in, st)
		if col != nil {
			az.recordAccess(fnID, in, ea, col)
			az.checkPtrEscape(st[in.Rd], fnID, in, col)
		}
		if az.storeMem(ea, in.Size, st[in.Rd]) {
			az.dirty = true
		}

	case isa.GAddr:
		gi := int(in.Imm)
		if gi >= 0 && gi < len(az.a.objOfGlobal) {
			st.set(in.Rd, objValue(az.a.objOfGlobal[gi]))
		} else {
			st.set(in.Rd, unknown())
		}
	case isa.Alloc:
		if id, ok := az.a.objOfAlloc[in.IP]; ok {
			st.set(in.Rd, objValue(id))
		} else {
			st.set(in.Rd, unknown())
		}

	case isa.Call:
		var v value
		if in.Fn >= 0 && in.Fn < len(az.rets) && az.seen[in.Fn] {
			v = az.rets[in.Fn]
		} else {
			v = unknown()
		}
		st.set(isa.RetReg, v)
	case isa.Ret:
		fn := fnID
		if !az.seen[fn] {
			az.rets[fn] = st[isa.RetReg]
			az.seen[fn] = true
			az.dirty = true
		} else {
			j := join(az.rets[fn], st[isa.RetReg])
			if !j.equal(az.rets[fn]) {
				az.rets[fn] = j
				az.dirty = true
			}
		}

	default:
		st.set(in.Rd, unknown())
	}
	st[isa.RZ] = exact(0)
}

// opaqued demotes a pointer that passed through non-affine arithmetic.
func (az *analyzer) opaqued(objs objSet, fnID int, in *isa.Instr, col *collector) value {
	if col != nil {
		col.freeze(objs, fnID, in.IP, fmt.Sprintf("pointer passes through %s", in.Op))
	}
	return opaquePtr(objs)
}

// checkedAdd demotes ptr+ptr; everything else is affine.
func (az *analyzer) checkedAdd(a, b value, fnID int, in *isa.Instr, col *collector) value {
	if a.isPtr() && b.isPtr() {
		return az.opaqued(a.objs.union(b.objs), fnID, in, col)
	}
	return addVals(a, b)
}

// checkedSub demotes int-ptr (ptr-ptr is a plain pointer difference).
func (az *analyzer) checkedSub(a, b value, fnID int, in *isa.Instr, col *collector) value {
	if b.isPtr() && !a.isPtr() {
		return az.opaqued(b.objs, fnID, in, col)
	}
	return subVals(a, b)
}

// intOnly2 applies fn (or returns unknown when fn is nil) to two integer
// operands; a pointer operand demotes to opaque.
func (az *analyzer) intOnly2(a, b value, fnID int, in *isa.Instr, col *collector,
	fn func(a, b value) value) value {
	if a.isPtr() || b.isPtr() {
		return az.opaqued(a.objs.union(b.objs), fnID, in, col)
	}
	if fn == nil {
		return unknown()
	}
	return fn(a, b)
}

// shlVals models Shl with an exact shift as a multiply.
func shlVals(a, b value) value {
	if b.m == 0 && b.c >= 0 && b.c < 63 {
		return mulVals(a, exact(int64(1)<<uint(b.c)))
	}
	return unknown()
}

// normEA reduces an effective address to object-relative form. Exact
// absolute addresses inside a global's loader range are attributed to it.
func (az *analyzer) normEA(ea value) (objs objSet, c int64, m uint64, ok bool) {
	if ea.isPtr() {
		if ea.opaque {
			return ea.objs, 0, 1, true
		}
		return ea.objs, ea.c, ea.m, true
	}
	if ea.m == 0 {
		if id, off, found := az.globalAt(uint64(ea.c)); found {
			return singleObj(id), off, 0, true
		}
	}
	return nil, 0, 0, false
}

// globalAt maps an absolute address to (object id, offset) when it falls
// inside a global's loader range.
func (az *analyzer) globalAt(addr uint64) (id int, off int64, ok bool) {
	i := sort.Search(len(az.globalBase), func(i int) bool { return az.globalBase[i] > addr })
	if i == 0 {
		return 0, 0, false
	}
	gi := i - 1
	g := az.p.Globals[gi]
	if addr >= az.globalBase[gi]+uint64(g.Size) {
		return 0, 0, false
	}
	return az.a.objOfGlobal[gi], int64(addr - az.globalBase[gi]), true
}

func (az *analyzer) storeMem(ea value, size uint8, v value) bool {
	objs, c, m, ok := az.normEA(ea)
	if !ok {
		if ea.m == 0 && uint64(ea.c) < mem.StaticBase {
			return false // below the data segment: never an object
		}
		return az.mem.storeAnywhere(v)
	}
	changed := false
	objs.each(func(id int) {
		if az.mem.store(id, c, m, size, v) {
			changed = true
		}
	})
	return changed
}

func (az *analyzer) loadMem(ea value, size uint8) value {
	objs, c, m, ok := az.normEA(ea)
	if !ok {
		return unknown()
	}
	v, found := az.mem.load(objs, c, m, size)
	if !found {
		// Never-written memory reads zero.
		return exact(0)
	}
	return v
}

// recordAccess attributes one Load/Store. The staticlint Exact stream is
// preferred when available (its IV dataflow bounds offsets tighter than
// the congruence join); otherwise the provenance lattice attributes, and
// anything neither can place demotes every record object.
func (az *analyzer) recordAccess(fnID int, in *isa.Instr, ea value, col *collector) {
	if sp := az.sa.StreamAt(in.IP); sp != nil && sp.Confidence == staticlint.Exact {
		if bo, ok := sp.BaseOf(); ok {
			if id, ok2 := az.objOfBase(bo); ok2 {
				col.attr(in, fnID).forObj(id).add(resid{c: sp.Disp, m: sp.Stride})
				return
			}
		}
	}
	if ea.isPtr() && ea.opaque {
		ia := col.attr(in, fnID)
		ea.objs.each(func(id int) { ia.forObj(id).all = true })
		col.freeze(ea.objs, fnID, in.IP, "access through an opaque pointer flow")
		return
	}
	objs, c, m, ok := az.normEA(ea)
	if ok {
		ia := col.attr(in, fnID)
		objs.each(func(id int) { ia.forObj(id).add(resid{c: c, m: m}) })
		return
	}
	if ea.m == 0 {
		if uint64(ea.c) < mem.StaticBase {
			return // e.g. a null-pointer chase terminator: touches no object
		}
		col.demoteAll(fnID, in.IP, "access through a forged (absolute) address")
		return
	}
	col.demoteAll(fnID, in.IP, "access through a statically unattributable address")
}

// checkPtrEscape freezes record objects whose *interior* (field) address
// is stored to memory: an escaping field pointer defeats any relocation
// of that field. Whole-element pointers (offset ≡ 0 mod element size) are
// the linked-structure idiom and stay legal — loads re-attribute them via
// the store environment.
func (az *analyzer) checkPtrEscape(v value, fnID int, in *isa.Instr, col *collector) {
	if !v.isPtr() {
		return
	}
	if v.opaque {
		col.freeze(v.objs, fnID, in.IP, "opaque pointer flow escapes to memory")
		return
	}
	var bad objSet
	v.objs.each(func(id int) {
		oi := &az.a.objs[id]
		if oi.st == nil {
			return // untyped objects carry no field claims
		}
		s := uint64(oi.st.Size)
		elemPtr := umod64(v.c, s) == 0 && (v.m == 0 || v.m%s == 0)
		if !elemPtr {
			bad = bad.union(singleObj(id))
		}
	})
	if !bad.empty() {
		col.freeze(bad, fnID, in.IP, "field address escapes to memory")
	}
}

// objOfBase maps a staticlint base object to an analysis object id.
func (az *analyzer) objOfBase(bo staticlint.BaseObject) (int, bool) {
	if bo.IsGlobal {
		if bo.Global < 0 || bo.Global >= len(az.a.objOfGlobal) {
			return 0, false
		}
		return az.a.objOfGlobal[bo.Global], true
	}
	if bo.IsHeap {
		id, ok := az.a.objOfAlloc[bo.AllocIP]
		return id, ok
	}
	return 0, false
}
