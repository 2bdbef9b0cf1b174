package sharing

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/prog"
)

// dataflow.go computes, per thread role, the abstract effective address
// of every memory access reachable from the role's root function. The
// abstract value is deliberately simpler than staticlint's expr lattice:
// instead of loop-counter symbols it carries a single symbolic
// parameter — the thread index t — because the sharing classification
// only needs to know how an address depends on *which thread* computes
// it, not how it advances per iteration. Loop-carried variation folds
// into a "constant part unknown" bit at joins, which is exactly the
// precision loss that demotes a claim from exact to hint.
//
// staticlint cannot provide this: its entry state makes every argument
// register ⊤, so any address indexed by the thread-id argument (the
// defining pattern of per-thread partitioning) is unresolved there. Here
// the entry state is seeded from the role's actual thread specs.

type avKind uint8

const (
	avBot avKind = iota
	avLin
	avTop
)

type baseKind uint8

const (
	baseNone baseKind = iota
	baseGlobal
)

// baseTag identifies the base object of an address. Heap bases are not
// tracked: an Alloc in a role function yields a fresh object per
// executing thread, so no single static base describes the role's
// address sets; such values go straight to ⊤ (and stores through them
// conservatively demote the role).
type baseTag struct {
	kind   baseKind
	global int
}

// av is one abstract value: base + tid·t + c over the role's thread
// index t, or ⊥/⊤. When cU is set the constant part is unknown (the
// value varies across iterations or merged paths) and c is zero.
type av struct {
	kind avKind
	base baseTag
	tid  int64
	c    int64
	cU   bool
}

func avTopV() av         { return av{kind: avTop} }
func avConst(c int64) av { return av{kind: avLin, c: c} }
func avGlobal(g int) av  { return av{kind: avLin, base: baseTag{kind: baseGlobal, global: g}} }
func (a av) known() bool { return a.kind == avLin }
func (a av) isConst() bool {
	return a.kind == avLin && a.base.kind == baseNone && a.tid == 0 && !a.cU
}

func (a av) String() string {
	switch a.kind {
	case avBot:
		return "⊥"
	case avTop:
		return "⊤"
	}
	s := ""
	if a.base.kind == baseGlobal {
		s = fmt.Sprintf("g%d + ", a.base.global)
	}
	if a.tid != 0 {
		s += fmt.Sprintf("%d·t + ", a.tid)
	}
	if a.cU {
		return s + "?"
	}
	return s + fmt.Sprintf("%d", a.c)
}

// avJoin is the lattice join at control-flow merges.
func avJoin(a, b av) av {
	switch {
	case a.kind == avBot:
		return b
	case b.kind == avBot:
		return a
	case a.kind == avTop || b.kind == avTop:
		return avTopV()
	}
	if a.base != b.base || a.tid != b.tid {
		return avTopV()
	}
	if a.cU || b.cU || a.c != b.c {
		return av{kind: avLin, base: a.base, tid: a.tid, cU: true}
	}
	return a
}

func avAdd(a, b av) av {
	if !a.known() || !b.known() {
		return avTopV()
	}
	if a.base.kind != baseNone && b.base.kind != baseNone {
		return avTopV() // pointer + pointer
	}
	out := av{kind: avLin, base: a.base, tid: a.tid + b.tid, c: a.c + b.c, cU: a.cU || b.cU}
	if b.base.kind != baseNone {
		out.base = b.base
	}
	if out.cU {
		out.c = 0
	}
	return out
}

func avSub(a, b av) av {
	if !a.known() || !b.known() {
		return avTopV()
	}
	if b.base.kind != baseNone {
		if a.base != b.base {
			return avTopV()
		}
		a.base, b.base = baseTag{}, baseTag{}
	}
	out := av{kind: avLin, base: a.base, tid: a.tid - b.tid, c: a.c - b.c, cU: a.cU || b.cU}
	if out.cU {
		out.c = 0
	}
	return out
}

func avMulK(a av, k int64) av {
	if !a.known() {
		return avTopV()
	}
	if k == 0 {
		return avConst(0)
	}
	if a.base.kind != baseNone && k != 1 {
		return avTopV() // scaled pointer
	}
	out := av{kind: avLin, base: a.base, tid: a.tid * k, c: a.c * k, cU: a.cU}
	if out.cU {
		out.c = 0
	}
	return out
}

// streamFact is the abstract address of one memory instruction under one
// role.
type streamFact struct {
	ip    uint64
	where string
	op    isa.Op
	size  uint8
	fn    int
	ea    av
}

// roleStreams analyzes the role's root function plus everything it can
// call and returns one fact per memory access. converged is false when
// any function's fixpoint ran out of sweeps (cfg.MaxSweeps).
func roleStreams(p *prog.Program, role *Role) (facts []streamFact, converged bool) {
	role.FnName = p.Funcs[role.Fn].Name
	converged = true
	for _, fn := range reachableFuncs(p, role.Fn) {
		var entry []av
		if fn == role.Fn {
			entry = rootEntry(role)
		} else {
			entry = calleeEntry()
		}
		ff, ok := solveFn(p, p.Funcs[fn], entry)
		if !ok {
			converged = false
			continue
		}
		facts = append(facts, ff.streamFacts()...)
	}
	return facts, converged
}

// reachableFuncs returns the call-graph closure of root, root first,
// then callees in discovery order (deterministic: blocks in order).
func reachableFuncs(p *prog.Program, root int) []int {
	seen := map[int]bool{root: true}
	order := []int{root}
	for qi := 0; qi < len(order); qi++ {
		f := p.Funcs[order[qi]]
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op == isa.Call && !seen[in.Fn] {
					seen[in.Fn] = true
					order = append(order, in.Fn)
				}
			}
		}
	}
	return order
}

// rootEntry is the abstract register file at the role function's entry:
// the interpreter zeroes every register and then places the thread's
// arguments, so non-argument registers are the constant 0 and each
// argument register gets the shape derived from the role's specs.
func rootEntry(role *Role) []av {
	st := make([]av, isa.NumRegs)
	for i := range st {
		st[i] = avConst(0)
	}
	for ai, as := range role.Args {
		if !argRegOK(ai) {
			break
		}
		r := isa.ArgReg0 + isa.Reg(ai)
		switch as.Shape {
		case ArgUniform:
			st[r] = avConst(as.Value)
		case ArgTid:
			st[r] = av{kind: avLin, tid: as.Step, c: as.Value}
		default:
			st[r] = avTopV()
		}
	}
	return st
}

// calleeEntry is the conservative entry state for functions the role
// calls: every register (arguments included) is ⊤.
func calleeEntry() []av {
	st := make([]av, isa.NumRegs)
	for i := range st {
		st[i] = avTopV()
	}
	st[isa.RZ] = avConst(0)
	return st
}

// fnFlow is the converged dataflow of one function under one entry
// state. in[b] is nil when block b is unreachable.
type fnFlow struct {
	p  *prog.Program
	f  *prog.Func
	in [][]av
}

// solveFn runs the dataflow to a fixpoint over the function's CFG.
func solveFn(p *prog.Program, f *prog.Func, entry []av) (*fnFlow, bool) {
	in, ok := cfg.Solve(cfg.Build(f), cfg.Flow[av]{
		Entry:    entry,
		Join:     avJoin,
		Equal:    func(a, b av) bool { return a == b },
		Transfer: transfer,
	})
	if !ok {
		return nil, false
	}
	return &fnFlow{p: p, f: f, in: in}, true
}

func transfer(in *isa.Instr, st []av) {
	set := func(r isa.Reg, v av) {
		if r != isa.RZ {
			st[r] = v
		}
	}
	val := func(r isa.Reg) av {
		if r == isa.RZ {
			return avConst(0)
		}
		return st[r]
	}
	switch in.Op {
	case isa.MovI:
		set(in.Rd, avConst(in.Imm))
	case isa.Mov:
		set(in.Rd, val(in.Rs1))
	case isa.Add:
		set(in.Rd, avAdd(val(in.Rs1), val(in.Rs2)))
	case isa.AddI:
		set(in.Rd, avAdd(val(in.Rs1), avConst(in.Imm)))
	case isa.Sub:
		set(in.Rd, avSub(val(in.Rs1), val(in.Rs2)))
	case isa.Mul:
		a, b := val(in.Rs1), val(in.Rs2)
		switch {
		case a.isConst():
			set(in.Rd, avMulK(b, a.c))
		case b.isConst():
			set(in.Rd, avMulK(a, b.c))
		default:
			set(in.Rd, avTopV())
		}
	case isa.MulI:
		set(in.Rd, avMulK(val(in.Rs1), in.Imm))
	case isa.Shl:
		if b := val(in.Rs2); b.isConst() {
			set(in.Rd, avMulK(val(in.Rs1), 1<<(uint64(b.c)&63)))
		} else {
			set(in.Rd, avTopV())
		}
	case isa.Div, isa.Rem, isa.And, isa.Or, isa.Xor, isa.Shr:
		a, b := val(in.Rs1), val(in.Rs2)
		if a.isConst() && b.isConst() {
			set(in.Rd, avConst(isa.FoldALU(in.Op, a.c, b.c)))
		} else {
			set(in.Rd, avTopV())
		}
	case isa.GAddr:
		set(in.Rd, avGlobal(int(in.Imm)))
	case isa.Alloc, isa.Load, isa.CvtFI, isa.CvtIF, isa.FAdd, isa.FSub, isa.FMul, isa.FDiv, isa.FSqrt:
		set(in.Rd, avTopV())
	case isa.Call:
		set(isa.RetReg, avTopV())
	}
}

// streamFacts extracts the abstract effective address of every memory
// access in the solved function.
func (ff *fnFlow) streamFacts() []streamFact {
	var facts []streamFact
	val := func(st []av, r isa.Reg) av {
		if r == isa.RZ {
			return avConst(0)
		}
		return st[r]
	}
	for b, blk := range ff.f.Blocks {
		st := make([]av, isa.NumRegs) // unreachable blocks stay ⊥
		copy(st, ff.in[b])
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op.IsMemAccess() {
				ea := avAdd(avAdd(val(st, in.Rs1), avMulK(val(st, in.Rs2), in.EffScale())), avConst(in.Disp))
				sf := streamFact{ip: in.IP, op: in.Op, size: in.Size, fn: ff.f.ID, ea: ea}
				if file, line := ff.p.LineOf(in.IP); file != "" {
					sf.where = fmt.Sprintf("%s:%d", file, line)
				}
				facts = append(facts, sf)
			}
			transfer(in, st)
		}
	}
	return facts
}
