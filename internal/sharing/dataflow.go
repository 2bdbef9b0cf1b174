package sharing

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/staticlint"
)

// dataflow.go computes, per thread role, the abstract effective address
// of every memory access reachable from the role's root function. It
// solves staticlint's address domain with the thread index t as a symbol
// of the role's entry state: the sharing classification needs to know
// how an address depends on *which thread* computes it, not how it
// advances per iteration, so the solve applies no loop-header rule and
// loop-carried variation folds into an unknown constant part at joins,
// which is exactly the precision loss that demotes a claim from exact to
// hint. The entry state is seeded from the role's actual thread specs,
// where staticlint's own entry state makes every argument register ⊤.

// addr is the part of a solved address the classifier reads. attributed
// is false unless the base is one program global (heap, merged or
// unknown bases, plain integers and ⊤ have no object to attribute to);
// tid is the coefficient of the thread index; c is the constant part,
// zero when cU marks it unknown.
type addr struct {
	global     int
	attributed bool
	tid        int64
	c          int64
	cU         bool
}

// streamFact is the abstract address of one memory instruction under one
// role.
type streamFact struct {
	where string
	op    isa.Op
	size  uint8
	ea    addr
}

// roleStreams analyzes the role's root function plus everything it can
// call and returns one fact per memory access. converged is false when
// any function's fixpoint ran out of sweeps (cfg.MaxSweeps).
func roleStreams(p *prog.Program, role *Role) (facts []streamFact, converged bool) {
	role.FnName = p.Funcs[role.Fn].Name
	converged = true
	for _, fn := range reachableFuncs(p, role.Fn) {
		entry := calleeEntry()
		if fn == role.Fn {
			entry = rootEntry(role)
		}
		accs, ok := staticlint.SolveAccesses(p.Funcs[fn], entry)
		if !ok {
			converged = false
			continue
		}
		for _, ac := range accs {
			g, attributed := ac.Addr.GlobalBase()
			c, known := ac.Addr.KnownConst()
			sf := streamFact{op: ac.Instr.Op, size: ac.Instr.Size, ea: addr{
				global: g, attributed: attributed, tid: ac.Addr.TidCoeff(), c: c, cU: !known,
			}}
			if file, line := p.LineOf(ac.Instr.IP); file != "" {
				sf.where = fmt.Sprintf("%s:%d", file, line)
			}
			facts = append(facts, sf)
		}
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
func rootEntry(role *Role) []staticlint.Addr {
	st := make([]staticlint.Addr, isa.NumRegs)
	for i := range st {
		st[i] = staticlint.ConstAddr(0)
	}
	for ai, as := range role.Args {
		if !argRegOK(ai) {
			break
		}
		r := isa.ArgReg0 + isa.Reg(ai)
		switch as.Shape {
		case ArgUniform:
			st[r] = staticlint.ConstAddr(as.Value)
		case ArgTid:
			st[r] = staticlint.TidAddr(as.Step, as.Value)
		default:
			st[r] = staticlint.TopAddr()
		}
	}
	return st
}

// calleeEntry is the conservative entry state for functions the role
// calls: every register (arguments included) is ⊤.
func calleeEntry() []staticlint.Addr {
	st := make([]staticlint.Addr, isa.NumRegs)
	for i := range st {
		st[i] = staticlint.TopAddr()
	}
	st[isa.RZ] = staticlint.ConstAddr(0)
	return st
}
