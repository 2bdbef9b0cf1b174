// Package cfg recovers control-flow structure from finalized programs:
// control-flow graphs, dominators, and the loop-nesting forest computed
// with Havlak's interval analysis — the same technique the paper's
// profiler (via hpcstruct) uses to identify loop boundaries on binaries.
//
// The analyzer never consults the builder's structured-loop helpers; it
// sees only blocks and branch targets, exactly as a binary analyzer sees
// machine code. Loops are reported with the synthetic source-line ranges
// of their member instructions, which is how StructSlim presents "the hot
// loop at line 615-616" style findings.
//
// Solve is the forward dataflow fixpoint the static analyses share:
// staticlint, sharing and legality each supply a value domain and
// transfer function and run it over the same Graph.
package cfg

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// Graph is the control-flow graph of one function. Node i is block i.
type Graph struct {
	Fn    *prog.Func
	Succs [][]int
	Preds [][]int
}

// Build derives the CFG from block terminators: a Jmp goes to its target;
// a Br goes to its target or falls through to the next block; Ret and Halt
// end the function; anything else falls through.
func Build(f *prog.Func) *Graph {
	n := len(f.Blocks)
	g := &Graph{
		Fn:    f,
		Succs: make([][]int, n),
		Preds: make([][]int, n),
	}
	addEdge := func(from, to int) {
		g.Succs[from] = append(g.Succs[from], to)
		g.Preds[to] = append(g.Preds[to], from)
	}
	for i, b := range f.Blocks {
		last := &b.Instrs[len(b.Instrs)-1]
		switch last.Op {
		case isa.Jmp:
			addEdge(i, last.Target)
		case isa.Br:
			addEdge(i, last.Target)
			if i+1 < n {
				addEdge(i, i+1)
			}
		case isa.Ret, isa.Halt:
			// no successors
		default:
			if i+1 < n {
				addEdge(i, i+1)
			}
		}
	}
	return g
}

// Dominators computes the immediate-dominator array with the
// Cooper–Harvey–Kennedy iterative algorithm. idom[entry] == entry;
// unreachable blocks get -1.
func (g *Graph) Dominators() []int {
	n := len(g.Succs)
	rpo, rpoIndex := g.reversePostorder()
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	if len(rpo) == 0 {
		return idom
	}
	entry := rpo[0]
	idom[entry] = entry

	intersect := func(a, b int) int {
		for a != b {
			for rpoIndex[a] > rpoIndex[b] {
				a = idom[a]
			}
			for rpoIndex[b] > rpoIndex[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom = -1
			for _, p := range g.Preds[b] {
				if idom[p] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// ReversePostorder returns the reachable blocks in reverse postorder, the
// order Solve sweeps them in.
func (g *Graph) ReversePostorder() []int {
	order, _ := g.reversePostorder()
	return order
}

// reversePostorder returns reachable blocks in reverse postorder, plus
// each block's index in that order (-1 for unreachable).
func (g *Graph) reversePostorder() (order []int, index []int) {
	n := len(g.Succs)
	index = make([]int, n)
	for i := range index {
		index[i] = -1
	}
	visited := make([]bool, n)
	post := make([]int, 0, n)

	type frame struct {
		node int
		next int
	}
	stack := []frame{{node: 0}}
	visited[0] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(g.Succs[f.node]) {
			s := g.Succs[f.node][f.next]
			f.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{node: s})
			}
			continue
		}
		post = append(post, f.node)
		stack = stack[:len(stack)-1]
	}
	order = make([]int, len(post))
	for i := range post {
		order[i] = post[len(post)-1-i]
		index[order[i]] = i
	}
	return order, index
}

// Dominates reports whether a dominates b given an idom array.
func Dominates(idom []int, a, b int) bool {
	if idom[b] < 0 {
		return false
	}
	for {
		if b == a {
			return true
		}
		if idom[b] == b {
			return a == b
		}
		b = idom[b]
	}
}
