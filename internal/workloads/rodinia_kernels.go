package workloads

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/vm"
)

// Bespoke Rodinia kernels. Unlike the pattern-composed stand-ins, these
// reproduce the real programs' data structures and loop nests — a CSR
// graph for bfs, a 2-D grid pair for hotspot, feature/center matrices
// for kmeans, layered weight matrices for backprop — so the overhead
// figure's workloads exercise the profiler with authentic access
// patterns. None of them keeps an array of structs, so StructSlim's
// correct output on all four is "nothing to split".

// bespokeKernel carries the shared metadata plumbing.
type bespokeKernel struct {
	name    string
	suite   string
	desc    string
	threads int // 0 or 1 = sequential
	build   func(s Scale) (*prog.Program, []Phase, error)
}

func (k bespokeKernel) Name() string             { return k.name }
func (k bespokeKernel) Suite() string            { return k.suite }
func (k bespokeKernel) Description() string      { return k.desc }
func (k bespokeKernel) Parallel() bool           { return k.threads > 1 }
func (k bespokeKernel) Record() *prog.RecordSpec { return nil }

func (k bespokeKernel) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	if l != nil {
		return nil, nil, fmt.Errorf("workload %s has no record to lay out", k.name)
	}
	return k.build(s)
}

func init() {
	register(bespokeKernel{
		name: "bfs", suite: RodiniaSuite,
		desc:  "Breadth-first search over an irregular graph",
		build: buildBFS,
	})
	register(bespokeKernel{
		name: "hotspot", suite: RodiniaSuite,
		desc: "Thermal simulation stencil", threads: 4,
		build: buildHotspot,
	})
	register(bespokeKernel{
		name: "kmeans", suite: RodiniaSuite,
		desc: "K-means clustering", threads: 4,
		build: buildKmeans,
	})
	register(bespokeKernel{
		name: "backprop", suite: RodiniaSuite,
		desc:  "Back-propagation neural network training",
		build: buildBackprop,
	})
}

// buildBFS: level-synchronous BFS over a CSR graph with degree 4:
// rowPtr[n+1], colIdx[4n] (scrambled targets), level[n], and two frontier
// queues swapped per level.
func buildBFS(s Scale) (*prog.Program, []Phase, error) {
	n := int64(1 << 15)
	levels := int64(10) // 4^d growth saturates n within ~8 levels
	if s == ScaleBench {
		n, levels = 1<<18, 12
	}
	const degree = 4

	b := prog.NewBuilder("bfs")
	rowG := b.Global("rowPtr", (n+1)*8, -1)
	colG := b.Global("colIdx", n*degree*8, -1)
	lvlG := b.Global("level", n*8, -1)
	curG := b.Global("frontier", n*8, -1)
	nxtG := b.Global("next_frontier", n*8, -1)
	cntG := b.Global("counts", 16, -1)

	main := b.Func("main", "bfs.c")
	row, col, lvl, cur, nxt, cnt := b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
	b.GAddr(row, rowG)
	b.GAddr(col, colG)
	b.GAddr(lvl, lvlG)
	b.GAddr(cur, curG)
	b.GAddr(nxt, nxtG)
	b.GAddr(cnt, cntG)

	i, x, nReg := b.R(), b.R(), b.R()
	b.MovI(nReg, n)
	// CSR setup: rowPtr[i] = 4i; colIdx scrambled; level = -1.
	b.AtLine(20)
	b.ForRange(i, 0, n+1, 1, func() {
		b.MulI(x, i, degree)
		b.Store(x, row, i, 8, 0, 8)
	})
	b.AtLine(25)
	m1 := b.R()
	b.MovI(m1, -1)
	b.ForRange(i, 0, n*degree, 1, func() {
		b.MulI(x, i, 40503)
		b.Rem(x, x, nReg)
		b.Store(x, col, i, 8, 0, 8)
	})
	b.AtLine(30)
	b.ForRange(i, 0, n, 1, func() {
		b.Store(m1, lvl, i, 8, 0, 8)
	})
	// Seed the frontier with vertex 0.
	b.Store(isa.RZ, cur, isa.RZ, 1, 0, 8)
	one := b.R()
	b.MovI(one, 1)
	b.Store(one, cnt, isa.RZ, 1, 0, 8) // counts[0] = |frontier|
	b.Store(isa.RZ, lvl, isa.RZ, 1, 0, 8)

	// Level loop (bfs.c:52-70): expand the frontier through CSR.
	depth, fcount, fi, v, e, eEnd, w, wl, nc := b.R(), b.R(), b.R(), b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
	b.AtLine(52)
	b.ForRange(depth, 0, levels, 1, func() {
		b.AtLine(52)
		b.Load(fcount, cnt, isa.RZ, 1, 0, 8)
		b.MovI(nc, 0)
		b.ForRangeReg(fi, 0, fcount, 1, func() {
			b.AtLine(55)
			b.Load(v, cur, fi, 8, 0, 8)
			b.Load(e, row, v, 8, 0, 8)
			b.Load(eEnd, row, v, 8, 8, 8)
			b.WhileLt(e, eEnd, func() {
				b.AtLine(58)
				b.Load(w, col, e, 8, 0, 8)
				b.Load(wl, lvl, w, 8, 0, 8)
				b.If(isa.Lt, wl, isa.RZ, func() {
					b.AtLine(61)
					b.AddI(wl, depth, 1)
					b.Store(wl, lvl, w, 8, 0, 8)
					b.Store(w, nxt, nc, 8, 0, 8)
					b.AddI(nc, nc, 1)
				}, nil)
				b.AddI(e, e, 1)
			})
		})
		// Swap frontiers; copy next into cur (bounded).
		b.Store(nc, cnt, isa.RZ, 1, 0, 8)
		b.ForRangeReg(fi, 0, nc, 1, func() {
			b.Load(v, nxt, fi, 8, 0, 8)
			b.Store(v, cur, fi, 8, 0, 8)
		})
	})
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, seqPhase(main), nil
}

// buildHotspot: the classic 2-D 5-point thermal stencil over temp/power
// grids, run like the OpenMP original: each time step is a parallel
// phase whose four threads own disjoint row bands (the phase boundary is
// the step barrier).
func buildHotspot(s Scale) (*prog.Program, []Phase, error) {
	rows, cols := int64(128), int64(256)
	steps := 6
	threads := 4
	if s == ScaleBench {
		rows, cols, steps = 512, 512, 8
	}
	n := rows * cols
	band := (rows - 2) / int64(threads)

	b := prog.NewBuilder("hotspot")
	tG := b.Global("temp", n*8, -1)
	t2G := b.Global("temp_next", n*8, -1)
	pG := b.Global("power", n*8, -1)

	initFn := b.Func("init_grids", "hotspot.c")
	{
		tp, pw, i := b.R(), b.R(), b.R()
		b.GAddr(tp, tG)
		b.GAddr(pw, pG)
		b.AtLine(20)
		b.ForRange(i, 0, n, 1, func() {
			v := b.R()
			b.CvtIF(v, i)
			b.Store(v, tp, i, 8, 0, 8)
			b.Store(v, pw, i, 8, 0, 8)
			b.Release(v)
		})
		b.Ret()
	}

	// One time step for one thread's row band (Arg0 = tid).
	stepFn := b.Func("single_iteration", "hotspot.c")
	{
		tp, t2, pw := b.R(), b.R(), b.R()
		b.GAddr(tp, tG)
		b.GAddr(t2, t2G)
		b.GAddr(pw, pG)
		r, c, idx, acc, v, lo, hi := b.R(), b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
		b.MovI(lo, band)
		b.Mul(lo, lo, isa.ArgReg0)
		b.AddI(lo, lo, 1)
		b.AddI(hi, lo, band)
		b.AtLine(180)
		b.Mov(r, lo)
		b.WhileLt(r, hi, func() {
			b.AtLine(182)
			b.ForRange(c, 1, cols-1, 1, func() {
				b.AtLine(184)
				b.MulI(idx, r, cols)
				b.Add(idx, idx, c)
				b.Load(acc, tp, idx, 8, 0, 8)
				b.Load(v, tp, idx, 8, -8, 8) // west
				b.FAdd(acc, acc, v)
				b.Load(v, tp, idx, 8, 8, 8) // east
				b.FAdd(acc, acc, v)
				b.Load(v, tp, idx, 8, -cols*8, 8) // north
				b.FAdd(acc, acc, v)
				b.Load(v, tp, idx, 8, cols*8, 8) // south
				b.FAdd(acc, acc, v)
				b.Load(v, pw, idx, 8, 0, 8)
				b.FAdd(acc, acc, v)
				b.Store(acc, t2, idx, 8, 0, 8)
			})
			b.AddI(r, r, 1)
		})
		// Copy the band back (models the grid swap).
		b.AtLine(195)
		b.Mov(r, lo)
		b.WhileLt(r, hi, func() {
			b.ForRange(c, 0, cols, 1, func() {
				b.MulI(idx, r, cols)
				b.Add(idx, idx, c)
				b.Load(v, t2, idx, 8, 0, 8)
				b.Store(v, tp, idx, 8, 0, 8)
			})
			b.AddI(r, r, 1)
		})
		b.Ret()
	}

	main := b.Func("main", "hotspot.c")
	b.Halt()
	b.SetEntry(main)
	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}

	phases := []Phase{{vm.ThreadSpec{Fn: initFn}}}
	for st := 0; st < steps; st++ {
		var ph Phase
		for t := 0; t < threads; t++ {
			ph = append(ph, vm.ThreadSpec{Fn: stepFn, Args: []int64{int64(t)}, Core: t})
		}
		phases = append(phases, ph)
	}
	return p, phases, nil
}

// buildKmeans: n points × 4 features against k centers, run like the
// OpenMP original: each iteration is a parallel phase; the four threads
// assign disjoint point shards and scatter their shards' features into
// the shared center sums (real coherence traffic on the sums).
func buildKmeans(s Scale) (*prog.Program, []Phase, error) {
	n := int64(1 << 14)
	iters := 4
	threads := 4
	if s == ScaleBench {
		n, iters = 1<<17, 5
	}
	const dim = 4
	const k = 8
	shard := n / int64(threads)

	b := prog.NewBuilder("kmeans")
	featG := b.Global("features", n*dim*8, -1)
	centG := b.Global("centers", k*dim*8, -1)
	membG := b.Global("membership", n*8, -1)
	sumG := b.Global("center_sums", k*dim*8, -1)

	initFn := b.Func("load_features", "kmeans.c")
	{
		feat, cent, i, x, modReg := b.R(), b.R(), b.R(), b.R(), b.R()
		b.GAddr(feat, featG)
		b.GAddr(cent, centG)
		b.MovI(modReg, k*dim)
		b.AtLine(15)
		b.ForRange(i, 0, n*dim, 1, func() {
			b.MulI(x, i, 16807)
			b.Rem(x, x, modReg)
			b.CvtIF(x, x)
			b.Store(x, feat, i, 8, 0, 8)
		})
		b.ForRange(i, 0, k*dim, 1, func() {
			b.CvtIF(x, i)
			b.Store(x, cent, i, 8, 0, 8)
		})
		b.Ret()
	}

	// One clustering iteration over one thread's point shard (Arg0 = tid).
	iterFn := b.Func("kmeans_clustering", "kmeans.c")
	{
		feat, cent, memb, sums := b.R(), b.R(), b.R(), b.R()
		b.GAddr(feat, featG)
		b.GAddr(cent, centG)
		b.GAddr(memb, membG)
		b.GAddr(sums, sumG)
		i, hi, ci, d, best, bestC, fv, cv, idx := b.R(), b.R(), b.R(), b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
		b.MovI(i, shard)
		b.Mul(i, i, isa.ArgReg0)
		b.AddI(hi, i, shard)
		// Assignment (kmeans_clustering.c:150-165).
		b.AtLine(150)
		b.WhileLt(i, hi, func() {
			b.AtLine(152)
			b.MovF(best, 1e300)
			b.MovI(bestC, 0)
			b.ForRange(ci, 0, k, 1, func() {
				b.AtLine(155)
				b.MovI(d, 0)
				for f := int64(0); f < dim; f++ {
					b.MulI(idx, i, dim)
					b.Load(fv, feat, idx, 8, f*8, 8)
					b.MulI(idx, ci, dim)
					b.Load(cv, cent, idx, 8, f*8, 8)
					b.FSub(fv, fv, cv)
					b.FMul(fv, fv, fv)
					b.FAdd(d, d, fv)
				}
				b.If(isa.Lt, d, best, func() {
					b.Mov(best, d)
					b.Mov(bestC, ci)
				}, nil)
			})
			b.Store(bestC, memb, i, 8, 0, 8)
			// Update (kmeans_clustering.c:170-178): scatter this point's
			// features into the shared center sums.
			b.AtLine(170)
			for f := int64(0); f < dim; f++ {
				b.MulI(idx, i, dim)
				b.Load(fv, feat, idx, 8, f*8, 8)
				b.MulI(idx, bestC, dim)
				b.Load(cv, sums, idx, 8, f*8, 8)
				b.FAdd(cv, cv, fv)
				b.Store(cv, sums, idx, 8, f*8, 8)
			}
			b.AddI(i, i, 1)
		})
		b.Ret()
	}

	main := b.Func("main", "kmeans.c")
	b.Halt()
	b.SetEntry(main)
	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	phases := []Phase{{vm.ThreadSpec{Fn: initFn}}}
	for it := 0; it < iters; it++ {
		var ph Phase
		for t := 0; t < threads; t++ {
			ph = append(ph, vm.ThreadSpec{Fn: iterFn, Args: []int64{int64(t)}, Core: t})
		}
		phases = append(phases, ph)
	}
	return p, phases, nil
}

// buildBackprop: one hidden layer: forward pass (input·W1 → hidden·W2 →
// out) and a weight-update pass over W1 — the row-major matrix walks
// that dominate the real backprop.
func buildBackprop(s Scale) (*prog.Program, []Phase, error) {
	in, hid := int64(512), int64(64)
	epochs := int64(6)
	if s == ScaleBench {
		in, hid, epochs = 2048, 128, 8
	}

	b := prog.NewBuilder("backprop")
	inG := b.Global("input_units", in*8, -1)
	w1G := b.Global("input_weights", in*hid*8, -1)
	hidG := b.Global("hidden_units", hid*8, -1)
	w2G := b.Global("hidden_weights", hid*8, -1)

	main := b.Func("main", "backprop.c")
	inp, w1, hd, w2 := b.R(), b.R(), b.R(), b.R()
	b.GAddr(inp, inG)
	b.GAddr(w1, w1G)
	b.GAddr(hd, hidG)
	b.GAddr(w2, w2G)

	i, j, acc, x, y, idx := b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
	b.AtLine(10)
	b.ForRange(i, 0, in, 1, func() {
		b.CvtIF(x, i)
		b.Store(x, inp, i, 8, 0, 8)
	})
	b.ForRange(i, 0, in*hid, 1, func() {
		b.CvtIF(x, i)
		b.Store(x, w1, i, 8, 0, 8)
	})

	ep := b.R()
	b.AtLine(250)
	b.ForRange(ep, 0, epochs, 1, func() {
		// Forward: hidden[j] = Σ_i input[i]·W1[i][j] (backprop.c:250-259).
		b.AtLine(250)
		b.ForRange(j, 0, hid, 1, func() {
			b.AtLine(252)
			b.MovI(acc, 0)
			b.ForRange(i, 0, in, 1, func() {
				b.Load(x, inp, i, 8, 0, 8)
				b.MulI(idx, i, hid)
				b.Add(idx, idx, j)
				b.Load(y, w1, idx, 8, 0, 8)
				b.FMul(x, x, y)
				b.FAdd(acc, acc, x)
			})
			b.Store(acc, hd, j, 8, 0, 8)
		})
		// Output + W1 update sweep (backprop.c:270-280).
		b.AtLine(270)
		b.ForRange(i, 0, in, 1, func() {
			b.AtLine(272)
			b.Load(x, inp, i, 8, 0, 8)
			b.ForRange(j, 0, hid, 1, func() {
				b.Load(y, hd, j, 8, 0, 8)
				b.FMul(y, y, x)
				b.MulI(idx, i, hid)
				b.Add(idx, idx, j)
				b.Load(acc, w1, idx, 8, 0, 8)
				b.FAdd(acc, acc, y)
				b.Store(acc, w1, idx, 8, 0, 8)
			})
		})
		_ = w2
	})
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, seqPhase(main), nil
}
