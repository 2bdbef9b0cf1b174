package cfg

import (
	"slices"

	"repro/internal/isa"
)

// MaxSweeps bounds every fixpoint Solve runs. The value lattices of the
// static analyses have small finite height, so real programs converge in
// a handful of sweeps; the bound is a safety net for pathological flows,
// which Solve reports as not converged.
const MaxSweeps = 64

// Flow is one forward dataflow problem over a function's register file.
// A block's in-state is the join of its reached predecessors' out-states
// (at block 0, also of Entry); its out-state is the in-state after
// Transfer has applied each of the block's instructions in turn. Each
// analysis keeps its own value domain V.
type Flow[V any] struct {
	// Entry is the register file at function entry.
	Entry []V
	Join  func(a, b V) V
	Equal func(a, b V) bool
	// Transfer applies one instruction to the state in place.
	Transfer func(in *isa.Instr, st []V)
	// Refine, when set, may rewrite block b's joined in-state in place
	// before the block is transferred. joinFrom joins the same states over
	// only the predecessors keep accepts (Entry still joins in at block
	// 0), and returns nil when none of them has been reached.
	Refine func(b int, in []V, joinFrom func(keep func(p int) bool) []V)
}

// Solve runs the flow to a fixpoint over g. It sweeps the reachable
// blocks in reverse postorder, the canonical deterministic order, so
// results are byte-stable across runs, until no block's out-state
// changes, or until MaxSweeps sweeps have run. It returns each block's
// in-state from the last sweep (nil for unreachable blocks) and whether
// the flow converged.
//
// Change is tested on out-states: a transfer may read facts that other
// blocks write (legality's memory environment and return values), so a
// block with an unchanged in-state can still produce a new out-state.
func Solve[V any](g *Graph, fl Flow[V]) (ins [][]V, converged bool) {
	rpo := g.ReversePostorder()
	ins = make([][]V, len(g.Succs))
	outs := make([][]V, len(g.Succs))
	for sweep := 0; sweep < MaxSweeps; sweep++ {
		changed := false
		for _, b := range rpo {
			in := fl.joinPreds(g, b, outs, nil)
			if fl.Refine != nil {
				fl.Refine(b, in, func(keep func(int) bool) []V {
					return fl.joinPreds(g, b, outs, keep)
				})
			}
			ins[b] = in
			out := slices.Clone(in)
			for i := range g.Fn.Blocks[b].Instrs {
				fl.Transfer(&g.Fn.Blocks[b].Instrs[i], out)
			}
			if !fl.equal(outs[b], out) {
				outs[b] = out
				changed = true
			}
		}
		if !changed {
			return ins, true
		}
	}
	return ins, false
}

// joinPreds joins the out-states of block b's reached predecessors that
// keep accepts (all of them when keep is nil), starting from Entry at
// block 0. Every reachable block other than 0 follows its depth-first
// parent in reverse postorder, so the full join is never nil.
func (fl *Flow[V]) joinPreds(g *Graph, b int, outs [][]V, keep func(int) bool) []V {
	var in []V
	if b == 0 {
		in = slices.Clone(fl.Entry)
	}
	for _, p := range g.Preds[b] {
		switch {
		case outs[p] == nil, keep != nil && !keep(p):
		case in == nil:
			in = slices.Clone(outs[p])
		default:
			for r := range in {
				in[r] = fl.Join(in[r], outs[p][r])
			}
		}
	}
	return in
}

// equal reports whether two out-states agree; a nil (unreached) state
// equals nothing.
func (fl *Flow[V]) equal(a, b []V) bool {
	if a == nil {
		return false
	}
	for i := range a {
		if !fl.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
