package staticlint

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/stride"
)

// Confidence grades a stream prediction.
type Confidence uint8

// Confidence levels. Exact predictions are hard claims the cross-checker
// enforces against the dynamic profile; Hint predictions have a known
// stride shape but an unknown base or constant part and are only
// soft-checked; Unresolved streams make no claim.
const (
	Unresolved Confidence = iota
	Hint
	Exact
)

func (c Confidence) String() string {
	switch c {
	case Exact:
		return "exact"
	case Hint:
		return "hint"
	}
	return "unresolved"
}

// LoopStride is the predicted address advance per iteration of one
// enclosing loop — the coefficient of that loop's counter in the stream's
// effective-address expression.
type LoopStride struct {
	Loop  *cfg.LoopInfo
	Coeff int64
}

// StreamPred is the static prediction for one memory instruction — the
// static twin of a dynamic stream (paper §4.2). Stride is the GCD of all
// loop-counter coefficients of the effective address, which is exactly
// the lattice of address deltas the dynamic GCD algorithm (Eqs. 2–3)
// samples from; PredSize and Offset mirror Eqs. 5–6.
type StreamPred struct {
	IP    uint64
	Where string // file:line
	FnID  int
	Op    isa.Op

	// Loop is the innermost enclosing loop (nil outside loops); PerLoop
	// lists every enclosing loop, innermost first, with its coefficient.
	Loop    *cfg.LoopInfo
	PerLoop []LoopStride

	Confidence Confidence
	Reason     string // why the stream is demoted below Exact

	// Stride is the GCD of the absolute values of all loop-counter
	// coefficients (0 = loop-invariant address). Valid for Exact and Hint.
	Stride uint64

	// Base and Disp describe the resolved address base + Disp (+ κ terms);
	// valid only for Exact streams.
	Base baseRef
	Disp int64

	// PredSize is the structure size of the stream's base object (Eq. 5
	// twin, filled in by object aggregation); Offset is Disp mod PredSize
	// (Eq. 6 twin). OffsetResolved gates both.
	PredSize       uint64
	Offset         uint64
	OffsetResolved bool
}

// ObjectPred aggregates the Exact streams of one base data object and
// carries the object-level structure-size prediction.
type ObjectPred struct {
	Base      baseRef
	Name      string
	TypeID    int // debug-info struct type, or -1
	DebugSize int // size from debug info, 0 when untyped

	// PredSize is the GCD of the object's Exact stream strides that are at
	// least stride.MinMeaningfulStride — the static Eq. 5.
	PredSize uint64

	Streams []*StreamPred
}

// Analysis is the full static analysis of one program.
type Analysis struct {
	Program *prog.Program
	Loops   *cfg.ProgramLoops

	// Streams holds a prediction for every Load/Store of the program,
	// sorted by IP.
	Streams []*StreamPred
	// Objects holds per-base-object aggregates for Exact streams, sorted
	// by name.
	Objects []*ObjectPred

	// UnanalyzedFns lists functions whose dataflow did not converge within
	// the iteration budget; all their streams are Unresolved.
	UnanalyzedFns []int

	// funcs holds each function's solved dataflow, indexed by function
	// id, for the reuse planner to walk.
	funcs []*funcAnalysis
}

// basicIV is a detected loop induction variable: within its loop, reg is
// updated by exactly one `addi reg, reg, step` that dominates every back
// edge, so its value is entry + step·κ.
type basicIV struct {
	reg  isa.Reg
	step int64
}

// AnalyzeProgram runs the static stride and layout analysis over a
// finalized program. It never executes the program.
func AnalyzeProgram(p *prog.Program) (*Analysis, error) {
	if !p.Finalized() {
		return nil, fmt.Errorf("program %s not finalized", p.Name)
	}
	loops, err := cfg.AnalyzeLoops(p)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Program: p, Loops: loops, funcs: make([]*funcAnalysis, len(p.Funcs))}
	called := calledFuncs(p)
	for _, f := range p.Funcs {
		fa := newFuncAnalysis(p, f, loops.Forests[f.ID])
		fa.fnIsCalled = called[f.ID]
		if !fa.solve() {
			a.UnanalyzedFns = append(a.UnanalyzedFns, f.ID)
		}
		a.Streams = append(a.Streams, fa.predictions(loops)...)
		a.funcs[f.ID] = fa
	}
	sort.Slice(a.Streams, func(i, j int) bool { return a.Streams[i].IP < a.Streams[j].IP })
	a.aggregateObjects()
	return a, nil
}

// funcAnalysis is the per-function dataflow state.
type funcAnalysis struct {
	p      *prog.Program
	f      *prog.Func
	g      *cfg.Graph
	forest *cfg.Forest
	idom   []int

	// loopOf[b] = innermost loop id of block b (or -1), blockIn[l][b]
	// reports membership of block b in loop l (including nested blocks).
	blockIn []map[int]bool // per loop id

	// ivsOf[l] = detected basic induction variables of loop l. Only
	// reducible loops get entries.
	ivsOf [][]basicIV

	// in[b] is the converged register state at entry of block b (⊥
	// everywhere when b is unreachable).
	in        [][]Addr
	converged bool

	// fnIsCalled marks functions reachable through Call instructions: a
	// single static Alloc site inside one may still execute once per call,
	// so heap-base claims are demoted to hints.
	fnIsCalled bool
}

// calledFuncs returns the set of functions targeted by any Call.
func calledFuncs(p *prog.Program) map[int]bool {
	called := make(map[int]bool)
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				if blk.Instrs[i].Op == isa.Call {
					called[blk.Instrs[i].Fn] = true
				}
			}
		}
	}
	return called
}

func newFuncAnalysis(p *prog.Program, f *prog.Func, forest *cfg.Forest) *funcAnalysis {
	fa := &funcAnalysis{
		p:      p,
		f:      f,
		forest: forest,
	}
	fa.g = cfg.Build(f)
	fa.idom = fa.g.Dominators()
	fa.blockIn = make([]map[int]bool, len(forest.Loops))
	for li, l := range forest.Loops {
		m := make(map[int]bool, len(l.Blocks))
		for _, b := range l.Blocks {
			m[b] = true
		}
		fa.blockIn[li] = m
	}
	fa.detectIVs()
	return fa
}

// detectIVs finds the basic induction variables of each reducible loop: a
// register whose only definition inside the loop is a single
// `addi r, r, step` in a block that dominates all the loop's back edges.
func (fa *funcAnalysis) detectIVs() {
	fa.ivsOf = make([][]basicIV, len(fa.forest.Loops))
	for li, l := range fa.forest.Loops {
		if l.Irreducible {
			continue
		}
		// Back-edge sources: predecessors of the header inside the loop.
		var latches []int
		for _, p := range fa.g.Preds[l.Header] {
			if fa.blockIn[li][p] {
				latches = append(latches, p)
			}
		}
		if len(latches) == 0 {
			continue
		}
		type defInfo struct {
			count   int
			block   int
			step    int64
			selfAdd bool
		}
		defs := make(map[isa.Reg]*defInfo)
		for _, bid := range l.Blocks {
			for i := range fa.f.Blocks[bid].Instrs {
				in := &fa.f.Blocks[bid].Instrs[i]
				rd, ok := defReg(in)
				if !ok || rd == isa.RZ {
					continue
				}
				d := defs[rd]
				if d == nil {
					d = &defInfo{}
					defs[rd] = d
				}
				d.count++
				d.block = bid
				if in.Op == isa.AddI && in.Rs1 == rd {
					d.selfAdd = true
					d.step = in.Imm
				} else {
					d.selfAdd = false
				}
			}
		}
		for reg, d := range defs {
			if d.count != 1 || !d.selfAdd || d.step == 0 {
				continue
			}
			domAll := true
			for _, latch := range latches {
				if !cfg.Dominates(fa.idom, d.block, latch) {
					domAll = false
					break
				}
			}
			if domAll {
				fa.ivsOf[li] = append(fa.ivsOf[li], basicIV{reg: reg, step: d.step})
			}
		}
		sort.Slice(fa.ivsOf[li], func(i, j int) bool { return fa.ivsOf[li][i].reg < fa.ivsOf[li][j].reg })
	}
}

// defReg returns the register an instruction defines, if any.
func defReg(in *isa.Instr) (isa.Reg, bool) {
	switch in.Op {
	case isa.Nop, isa.Store, isa.Jmp, isa.Br, isa.Ret, isa.Halt:
		return 0, false
	case isa.Call:
		return isa.RetReg, true // call clobbers the return register
	}
	return in.Rd, true
}

// headerLoop returns the loop id whose header is block b, or -1.
func (fa *funcAnalysis) headerLoop(b int) int {
	lid := fa.forest.InnermostOf[b]
	if lid >= 0 && fa.forest.Loops[lid].Header == b {
		return lid
	}
	return -1
}

// allocInLoop reports whether an Alloc-site base was produced inside the
// given loop (its value then differs per iteration and must be dropped at
// the loop's header).
func (fa *funcAnalysis) allocInLoop(b baseRef, lid int) bool {
	if b.Kind != baseAlloc {
		return false
	}
	loc, ok := fa.p.Loc(b.AllocIP)
	if !ok || loc.Fn != fa.f.ID {
		return false
	}
	return fa.blockIn[lid][loc.Block]
}

// entryState is the abstract register file at function entry: the zero
// register is 0, everything else (arguments included) is unknown.
func entryState() []Addr {
	st := make([]Addr, isa.NumRegs)
	for i := range st {
		st[i] = TopAddr()
	}
	st[isa.RZ] = ConstAddr(0)
	return st
}

// solve runs the dataflow to a fixpoint. Returns false when the sweep
// budget ran out (the function is then reported unanalyzed).
func (fa *funcAnalysis) solve() bool {
	fa.in, fa.converged = cfg.Solve(fa.g, cfg.Flow[Addr]{
		Entry:    entryState(),
		Join:     join,
		Equal:    Addr.equal,
		Transfer: transfer,
		Refine:   fa.atHeader,
	})
	for b := range fa.in {
		if fa.in[b] == nil {
			fa.in[b] = make([]Addr, isa.NumRegs) // unreachable: ⊥ everywhere
		}
	}
	return fa.converged
}

// atHeader applies the loop-header rules to the joined in-state of a
// reducible loop header: it pins the induction variables and applies the
// demotions that keep loop-counter symbols sound.
func (fa *funcAnalysis) atHeader(b int, st []Addr, joinFrom func(keep func(p int) bool) []Addr) {
	lid := fa.headerLoop(b)
	if lid < 0 || fa.forest.Loops[lid].Irreducible {
		return
	}
	// The loop's entry state joins the edges from outside the loop (and
	// the function-entry state when the header is the entry block). The
	// header dominates its loop, so its depth-first parent is outside it
	// and already reached: the join is never nil.
	entrySt := joinFrom(func(p int) bool { return !fa.blockIn[lid][p] })

	iv := ivRef{Fn: fa.f.ID, Header: b}
	isIV := make(map[isa.Reg]int64)
	for _, v := range fa.ivsOf[lid] {
		isIV[v.reg] = v.step
	}
	for r := range st {
		reg := isa.Reg(r)
		if step, ok := isIV[reg]; ok {
			// Pin the induction variable: entry value + step·κ. An unknown
			// entry value still leaves the stride shape known (a hint).
			e := entrySt[r]
			switch e.kind {
			case exprBottom:
				st[r] = bottom()
			case exprTop:
				st[r] = Addr{kind: exprLinU}.addTerm(iv, step)
			default:
				if e.hasTerm(iv) || fa.allocInLoop(e.base, lid) {
					// A stale counter symbol of this very loop, or a base
					// allocated inside it: no sound linear form exists.
					st[r] = TopAddr()
				} else {
					st[r] = e.addTerm(iv, step)
				}
			}
			continue
		}
		// Non-IV registers: a value mentioning this loop's own counter at
		// its header is stale (it was computed in a previous iteration or
		// a previous execution of the loop), and a base allocated inside
		// the loop differs per iteration.
		if st[r].known() && (st[r].hasTerm(iv) || fa.allocInLoop(st[r].base, lid)) {
			st[r] = TopAddr()
		}
	}
}

// transfer applies one instruction to the state in place. It is the one
// affine transfer of the IR: staticlint and the sharing analysis both
// solve with it.
func transfer(in *isa.Instr, st []Addr) {
	set := func(r isa.Reg, v Addr) {
		if r != isa.RZ {
			st[r] = v
		}
	}
	val := func(r isa.Reg) Addr {
		if r == isa.RZ {
			return ConstAddr(0)
		}
		return st[r]
	}
	switch in.Op {
	case isa.MovI:
		set(in.Rd, ConstAddr(in.Imm))
	case isa.Mov:
		set(in.Rd, val(in.Rs1))
	case isa.Add:
		set(in.Rd, add(val(in.Rs1), val(in.Rs2)))
	case isa.AddI:
		set(in.Rd, add(val(in.Rs1), ConstAddr(in.Imm)))
	case isa.Sub:
		set(in.Rd, sub(val(in.Rs1), val(in.Rs2)))
	case isa.Mul:
		a, b := val(in.Rs1), val(in.Rs2)
		switch {
		case a.isConst():
			set(in.Rd, mulConst(b, a.c))
		case b.isConst():
			set(in.Rd, mulConst(a, b.c))
		default:
			set(in.Rd, TopAddr())
		}
	case isa.MulI:
		set(in.Rd, mulConst(val(in.Rs1), in.Imm))
	case isa.Shl:
		if b := val(in.Rs2); b.isConst() {
			set(in.Rd, mulConst(val(in.Rs1), 1<<(uint64(b.c)&63)))
		} else {
			set(in.Rd, TopAddr())
		}
	case isa.Div, isa.Rem, isa.And, isa.Or, isa.Xor, isa.Shr:
		a, b := val(in.Rs1), val(in.Rs2)
		if a.isConst() && b.isConst() {
			set(in.Rd, ConstAddr(isa.FoldALU(in.Op, a.c, b.c)))
		} else {
			set(in.Rd, TopAddr())
		}
	case isa.GAddr:
		set(in.Rd, baseExpr(baseRef{Kind: baseGlobal, Global: int(in.Imm)}))
	case isa.Alloc:
		set(in.Rd, baseExpr(baseRef{Kind: baseAlloc, AllocIP: in.IP}))
	case isa.Load, isa.CvtFI, isa.CvtIF, isa.FAdd, isa.FSub, isa.FMul, isa.FDiv, isa.FSqrt:
		set(in.Rd, TopAddr())
	case isa.Call:
		set(isa.RetReg, TopAddr())
	}
}

// eaExpr computes the abstract effective address of a memory instruction
// given the register state just before it.
func eaExpr(in *isa.Instr, st []Addr) Addr {
	val := func(r isa.Reg) Addr {
		if r == isa.RZ {
			return ConstAddr(0)
		}
		return st[r]
	}
	ea := add(val(in.Rs1), mulConst(val(in.Rs2), in.EffScale()))
	return add(ea, ConstAddr(in.Disp))
}

// Access is one Load/Store of a solved function and its abstract
// effective address.
type Access struct {
	Instr *isa.Instr
	Addr  Addr
	block int
}

// accesses walks f's blocks in order from the in-states of a solve and
// returns every Load/Store with its effective address. A block without an
// in-state (unreachable) starts at ⊥, so only addresses built inside it
// resolve.
func accesses(f *prog.Func, in [][]Addr) []Access {
	var out []Access
	for b, blk := range f.Blocks {
		st := make([]Addr, isa.NumRegs)
		copy(st, in[b])
		for i := range blk.Instrs {
			ins := &blk.Instrs[i]
			if ins.Op.IsMemAccess() {
				out = append(out, Access{Instr: ins, Addr: eaExpr(ins, st), block: b})
			}
			transfer(ins, st)
		}
	}
	return out
}

// SolveAccesses solves f's address dataflow from the entry register file
// and returns every Load/Store with its effective address, in block
// order. It applies no loop-header rule, so no loop-counter symbol
// appears and a value carried around a loop joins its pre-loop value at
// the header. ok is false when the fixpoint ran out of sweeps.
func SolveAccesses(f *prog.Func, entry []Addr) (acc []Access, ok bool) {
	in, ok := cfg.Solve(cfg.Build(f), cfg.Flow[Addr]{
		Entry:    entry,
		Join:     join,
		Equal:    Addr.equal,
		Transfer: transfer,
	})
	if !ok {
		return nil, false
	}
	return accesses(f, in), true
}

// predictions emits one StreamPred per Load/Store of the function.
func (fa *funcAnalysis) predictions(loops *cfg.ProgramLoops) []*StreamPred {
	var preds []*StreamPred
	for _, ac := range accesses(fa.f, fa.in) {
		preds = append(preds, fa.predictStream(ac, loops))
	}
	return preds
}

// predictStream builds the prediction for one memory instruction.
func (fa *funcAnalysis) predictStream(ac Access, loops *cfg.ProgramLoops) *StreamPred {
	in := ac.Instr
	sp := &StreamPred{
		IP:   in.IP,
		FnID: fa.f.ID,
		Op:   in.Op,
	}
	if file, line := fa.p.LineOf(in.IP); file != "" {
		sp.Where = fmt.Sprintf("%s:%d", file, line)
	}
	sp.Loop = loops.LoopOfIP(in.IP)

	// Enclosing loops, innermost first, and the irreducibility demotion.
	irreducible := false
	var enclosing []int
	for lid := fa.forest.InnermostOf[ac.block]; lid >= 0; lid = fa.forest.Loops[lid].Parent {
		enclosing = append(enclosing, lid)
		if fa.forest.Loops[lid].Irreducible {
			irreducible = true
		}
	}

	if !fa.converged {
		sp.Reason = "dataflow did not converge"
		return sp
	}
	ea := ac.Addr
	if irreducible {
		sp.Reason = "inside an irreducible loop"
		return sp
	}
	if !ea.known() {
		sp.Reason = "address not statically linear"
		return sp
	}
	// A base allocated inside an enclosing loop is a fresh object every
	// iteration; the dynamic stream for this IP merges samples across
	// those objects (same allocation-site identity), so no per-object
	// static stride claim is comparable.
	for _, lid := range enclosing {
		if fa.allocInLoop(ea.base, lid) {
			sp.Reason = "base allocated inside an enclosing loop"
			return sp
		}
	}

	// Per-enclosing-loop coefficients.
	encSet := make(map[ivRef]bool, len(enclosing))
	for _, lid := range enclosing {
		iv := ivRef{Fn: fa.f.ID, Header: fa.forest.Loops[lid].Header}
		encSet[iv] = true
		sp.PerLoop = append(sp.PerLoop, LoopStride{
			Loop:  loops.Info(cfg.LoopKey(fa.f.ID, fa.forest.Loops[lid].Header)),
			Coeff: ea.coeff(iv),
		})
	}

	// Stride: GCD of every counter coefficient — the lattice the dynamic
	// deltas live in.
	var g uint64
	outsideTerm := false
	for iv, c := range ea.terms {
		g = stride.GCD(g, abs64(c))
		if !encSet[iv] {
			outsideTerm = true
		}
	}
	sp.Stride = g

	switch {
	case ea.kind == exprLinU:
		sp.Confidence = Hint
		sp.Reason = "base or constant part unknown"
	case ea.base.Kind == baseAlloc && fa.fnIsCalled:
		// Each call of this function re-executes the Alloc, so one dynamic
		// stream spans several objects; only the stride shape is claimed.
		sp.Confidence = Hint
		sp.Reason = "allocation in a called function"
	case outsideTerm:
		// A counter of a non-enclosing loop (a loop-exit value) behaves as
		// an opaque constant here; the stride shape is only a hint.
		sp.Confidence = Hint
		sp.Reason = "address uses a loop-exit value"
	default:
		sp.Confidence = Exact
		sp.Base = ea.base
		sp.Disp = ea.c
	}
	return sp
}

// aggregateObjects groups Exact streams by base object and computes the
// static Eq. 5/6: object size = GCD of meaningful stream strides, stream
// offset = displacement mod size.
func (a *Analysis) aggregateObjects() {
	byBase := make(map[baseRef]*ObjectPred)
	for _, sp := range a.Streams {
		if sp.Confidence != Exact {
			continue
		}
		op := byBase[sp.Base]
		if op == nil {
			op = &ObjectPred{Base: sp.Base, TypeID: -1}
			op.Name, op.TypeID, op.DebugSize = a.describeBase(sp.Base)
			byBase[sp.Base] = op
		}
		op.Streams = append(op.Streams, sp)
	}
	for _, op := range byBase {
		var votes []uint64
		for _, sp := range op.Streams {
			if sp.Stride >= stride.MinMeaningfulStride {
				votes = append(votes, sp.Stride)
			}
		}
		op.PredSize = stride.StructSize(votes)
		if op.PredSize == 0 {
			continue
		}
		for _, sp := range op.Streams {
			if sp.Stride%op.PredSize != 0 {
				continue // irregular relative to the recovered size
			}
			sp.PredSize = op.PredSize
			sp.Offset = umod(sp.Disp, op.PredSize)
			sp.OffsetResolved = true
		}
	}
	a.Objects = make([]*ObjectPred, 0, len(byBase))
	for _, op := range byBase {
		sort.Slice(op.Streams, func(i, j int) bool { return op.Streams[i].IP < op.Streams[j].IP })
		a.Objects = append(a.Objects, op)
	}
	sort.Slice(a.Objects, func(i, j int) bool {
		if a.Objects[i].Name != a.Objects[j].Name {
			return a.Objects[i].Name < a.Objects[j].Name
		}
		return a.Objects[i].Base.AllocIP < a.Objects[j].Base.AllocIP
	})
}

// describeBase resolves a base reference to a display name and debug type.
func (a *Analysis) describeBase(b baseRef) (name string, typeID, debugSize int) {
	typeID = -1
	switch b.Kind {
	case baseGlobal:
		if b.Global >= 0 && b.Global < len(a.Program.Globals) {
			g := &a.Program.Globals[b.Global]
			name = g.Name
			typeID = g.TypeID
		}
	case baseAlloc:
		if file, line := a.Program.LineOf(b.AllocIP); file != "" {
			name = fmt.Sprintf("heap@%s:%d", file, line)
		} else {
			name = fmt.Sprintf("heap@%#x", b.AllocIP)
		}
		if tid, ok := a.Program.AllocSiteType[b.AllocIP]; ok {
			typeID = tid
		}
	}
	if typeID >= 0 && typeID < len(a.Program.Types) {
		debugSize = a.Program.Types[typeID].Size
	} else {
		typeID = -1
	}
	return name, typeID, debugSize
}

// BaseObject is the exported view of a stream's resolved base, for
// other analyses (internal/legality attributes exact streams by it)
// without exposing the internal baseRef lattice.
type BaseObject struct {
	IsGlobal bool
	Global   int // valid when IsGlobal
	IsHeap   bool
	AllocIP  uint64 // valid when IsHeap
}

// BaseOf returns the stream's resolved base object. ok is false when the
// base never resolved (pointer chases, opaque arguments).
func (sp *StreamPred) BaseOf() (BaseObject, bool) {
	switch sp.Base.Kind {
	case baseGlobal:
		return BaseObject{IsGlobal: true, Global: sp.Base.Global}, true
	case baseAlloc:
		return BaseObject{IsHeap: true, AllocIP: sp.Base.AllocIP}, true
	}
	return BaseObject{}, false
}

// StreamAt returns the prediction for the memory instruction at ip, or
// nil.
func (a *Analysis) StreamAt(ip uint64) *StreamPred {
	i := sort.Search(len(a.Streams), func(i int) bool { return a.Streams[i].IP >= ip })
	if i < len(a.Streams) && a.Streams[i].IP == ip {
		return a.Streams[i]
	}
	return nil
}

func abs64(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// umod is the Euclidean remainder of a signed displacement by an unsigned
// size.
func umod(d int64, size uint64) uint64 {
	m := d % int64(size)
	if m < 0 {
		m += int64(size)
	}
	return uint64(m)
}
