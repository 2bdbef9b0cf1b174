package workloads

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
)

// tsp models Olden's TSP solver (Section 6.3): heap-allocated tree nodes
// {int sz; double x, y; tree *left, *right, *next, *prev} (56 bytes).
// The tour loops at tsp.c lines 139-142 and 170-173 chase next and read
// the x/y coordinates of every node — the paper reports x, y and next
// carrying the structure's latency with mutual affinity 1, so the advice
// groups {x, y, next} and leaves {sz, left, right, prev} behind
// (Figure 9).
//
// Memory behaviour is modeled faithfully in both directions:
//
//   - The *original* program allocates nodes one at a time from a single
//     call site. On a bump allocator consecutive 56-byte requests land 64
//     bytes apart (16-byte alignment), so the next-chase walks the heap at
//     a constant 64-byte stride — the GCD analysis sees the padded stride,
//     aggregates the thousands of node objects by allocation call path,
//     and still recovers the field offsets exactly.
//
//   - The *split* program applies the paper's actual transformation
//     (Figure 9 stores int links, i.e. parallel arrays): one pool per new
//     struct, with next holding the address of the successor's {x,y,next}
//     record, so the hot working set per node shrinks from 64 to 24
//     bytes.
//
// Both versions run the same traversal code: the chase requires x, y and
// next to share an array, which holds for the original layout and for the
// advised split.
type tsp struct{}

func init() { register(tsp{}) }

func (tsp) Name() string        { return "tsp" }
func (tsp) Suite() string       { return "Olden" }
func (tsp) Description() string { return "Traveling Salesman Problem solver" }
func (tsp) Parallel() bool      { return false }

func (tsp) Record() *prog.RecordSpec {
	return prog.MustRecord("tree",
		prog.Field{Name: "sz", Size: 4},
		prog.Field{Name: "x", Size: 8, Float: true},
		prog.Field{Name: "y", Size: 8, Float: true},
		prog.Field{Name: "left", Size: 8},
		prog.Field{Name: "right", Size: 8},
		prog.Field{Name: "next", Size: 8},
		prog.Field{Name: "prev", Size: 8},
	)
}

func (w tsp) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(w, l)
	if err != nil {
		return nil, nil, err
	}
	np, xp, yp := l.Place("next"), l.Place("x"), l.Place("y")
	if xp.Arr != np.Arr || yp.Arr != np.Arr {
		return nil, nil, fmt.Errorf("tsp: layout %v separates x/y from next; the tour chase needs them together", l)
	}
	hotStride := int64(l.Structs[np.Arr].Size)

	n := int64(20000)
	if s == ScaleBench {
		n = 120000
	}

	b := prog.NewBuilder("tsp")
	tids := b.RegisterLayout(l)
	// heads[k] = base address of node 0's struct k.
	headG := b.Global("tree_heads", int64(8*l.NumArrays()), -1)

	buildFn := b.Func("build_tree", "build.c")
	{
		headBase := b.R()
		b.GAddr(headBase, headG)
		iv, sz, coord := b.R(), b.R(), b.R()
		b.AtLine(20)

		if !l.IsSplit() {
			// Original: one heap allocation per node, linked as built.
			node, prev := b.R(), b.R()
			b.MovI(prev, 0)
			b.MovI(sz, int64(l.Structs[0].Size))
			b.ForRange(iv, 0, n, 1, func() {
				b.AtLine(21)
				b.Alloc(node, sz, tids[0])
				b.If(isa.Eq, prev, isa.RZ,
					func() { b.Store(node, headBase, isa.RZ, 1, int64(8*np.Arr), 8) },
					func() { b.Store(node, prev, isa.RZ, 1, int64(np.Offset), 8) },
				)
				b.CvtIF(coord, iv)
				b.Store(coord, node, isa.RZ, 1, int64(xp.Offset), 8)
				b.Store(coord, node, isa.RZ, 1, int64(yp.Offset), 8)
				szp := l.Place("sz")
				b.Store(iv, node, isa.RZ, 1, int64(szp.Offset), 4)
				pp := l.Place("prev")
				b.Store(prev, node, isa.RZ, 1, int64(pp.Offset), 8)
				b.Mov(prev, node)
			})
			b.Store(isa.RZ, prev, isa.RZ, 1, int64(np.Offset), 8)
		} else {
			// Split: one pool per struct (the Figure 9 rewrite).
			pools := make([]isa.Reg, l.NumArrays())
			for ai := 0; ai < l.NumArrays(); ai++ {
				pools[ai] = b.R()
				b.MovI(sz, n*int64(l.Structs[ai].Size))
				b.Alloc(pools[ai], sz, tids[ai])
				b.Store(pools[ai], headBase, isa.RZ, 1, int64(8*ai), 8)
			}
			addr, succ := b.R(), b.R()
			fieldAddr := func(pl prog.Placement, idx isa.Reg) {
				b.MulI(addr, idx, int64(l.Structs[pl.Arr].Size))
				b.Add(addr, addr, pools[pl.Arr])
			}
			b.ForRange(iv, 0, n, 1, func() {
				b.AtLine(21)
				// next = &pool[np.Arr][i+1], 0 for the last node.
				fieldAddr(np, iv)
				b.AddI(succ, addr, hotStride)
				last := b.R()
				b.MovI(last, n-1)
				b.If(isa.Eq, iv, last, func() { b.MovI(succ, 0) }, nil)
				b.Release(last)
				b.Store(succ, addr, isa.RZ, 1, int64(np.Offset), 8)
				b.CvtIF(coord, iv)
				b.Store(coord, addr, isa.RZ, 1, int64(xp.Offset), 8)
				b.Store(coord, addr, isa.RZ, 1, int64(yp.Offset), 8)
				szp := l.Place("sz")
				fieldAddr(szp, iv)
				b.Store(iv, addr, isa.RZ, 1, int64(szp.Offset), 4)
				pp := l.Place("prev")
				fieldAddr(pp, iv)
				b.Store(isa.RZ, addr, isa.RZ, 1, int64(pp.Offset), 8)
			})
		}
		b.Ret()
	}

	// tourFn walks the tour reps times: load x and y, accumulate, chase
	// next. Arg0 = reps; the caller sets the source lines via distinct
	// wrappers so the two paper loops are distinguishable.
	makeTour := func(name string, lineLo, lineHi int, reps int64) int {
		fn := b.Func(name, "tsp.c")
		headBase, rep, p, xv, yv, sum := b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
		b.GAddr(headBase, headG)
		b.AtLine(lineLo)
		b.ForRange(rep, 0, reps, 1, func() {
			b.AtLine(lineLo)
			b.Load(p, headBase, isa.RZ, 1, int64(8*np.Arr), 8)
			b.MovI(sum, 0)
			b.WhileNZ(p, func() {
				b.AtLine(lineHi)
				b.Load(xv, p, isa.RZ, 1, int64(xp.Offset), 8)
				b.Load(yv, p, isa.RZ, 1, int64(yp.Offset), 8)
				// Euclidean tour distance: (x−y)², √, accumulate — the
				// FP work per city that keeps TSP's paper speedup at
				// 1.09× despite the layout win.
				b.FSub(xv, xv, yv)
				b.FMul(xv, xv, xv)
				b.FSqrt(xv, xv)
				b.FAdd(sum, sum, xv)
				b.Load(p, p, isa.RZ, 1, int64(np.Offset), 8)
			})
		})
		b.Ret()
		return fn
	}
	// Paper Table: loops 139-142 (23.4% of latency) and 170-173 (76.6%).
	tourA := makeTour("conquer", 139, 142, 3)
	tourB := makeTour("merge", 170, 173, 10)

	main := b.Func("main", "tsp.c")
	b.Call(buildFn)
	b.Call(tourA)
	b.Call(tourB)
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, seqPhase(main), nil
}
