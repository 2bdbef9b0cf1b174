package workloads

import (
	"fmt"

	"repro/internal/prog"
)

// suiteKernel is a stand-in for one Rodinia or SPEC CPU 2006 program,
// composed from the access-pattern library with a mix matched to the
// program's memory character (stream-, stencil-, gather-, chase-,
// update- or compute-bound). These kernels exist for the paper's
// overhead studies (Figures 4 and 5) — overhead depends on memory-access
// density and thread count, not on program semantics — and as analyzer
// robustness inputs: none of them has an array-of-structs splitting
// opportunity, so StructSlim must come back empty-handed quietly.
type suiteKernel struct {
	name  string
	suite string
	desc  string

	n int64 // base working-set elements (bench scale; test uses n/4)

	stream  int // reps of the STREAM-triad loop
	stencil int // reps of the 3-point stencil
	gather  int // reps of the index-gather reduction
	scatter int // reps of the histogram update
	chase   int // reps of the full pointer chase
	reduce  int // reps of the FP reduction
	flops   int // extra FP ops per reduced element
	rowWalk int // reps of the row-major matrix walk
	colWalk int // reps of the column-major (large-stride) walk
}

func (k suiteKernel) Name() string             { return k.name }
func (k suiteKernel) Suite() string            { return k.suite }
func (k suiteKernel) Description() string      { return k.desc }
func (k suiteKernel) Parallel() bool           { return false }
func (k suiteKernel) Record() *prog.RecordSpec { return nil }

func (k suiteKernel) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	if l != nil {
		return nil, nil, fmt.Errorf("workload %s has no record to lay out", k.name)
	}
	n := k.n
	if s == ScaleTest {
		n /= 4
	}
	if n < 1024 {
		n = 1024
	}
	rows := int64(256)
	cols := n / rows

	b := prog.NewBuilder(k.name)
	aG := b.Global("a", n*8, -1)
	bG := b.Global("b", n*8, -1)
	cG := b.Global("c", n*8, -1)
	idxG := b.Global("idx", n*8, -1)

	main := b.Func("main", k.name+".c")
	a, bb, c, idx := b.R(), b.R(), b.R(), b.R()
	b.GAddr(a, aG)
	b.GAddr(bb, bG)
	b.GAddr(c, cG)
	b.GAddr(idx, idxG)

	initLinear(b, a, n, 10)
	initLinear(b, bb, n, 12)
	initScrambled(b, idx, n, 14)
	if k.chase > 0 {
		initChain(b, c, n/4, 32, 16)
	}

	line := 100
	rep := b.R()
	emit := func(reps int, f func()) {
		if reps == 0 {
			return
		}
		b.AtLine(line)
		b.ForRange(rep, 0, int64(reps), 1, func() { f() })
		line += 20
	}
	sum := b.R()
	b.MovI(sum, 0)
	emit(k.stream, func() { emitStream(b, c, a, bb, n, line+1) })
	emit(k.stencil, func() { emitStencil(b, c, a, n, line+1) })
	emit(k.gather, func() { emitGather(b, a, idx, sum, n, line+1) })
	emit(k.scatter, func() { emitScatterInc(b, bb, idx, n, line+1) })
	emit(k.chase, func() {
		head := b.R()
		b.Mov(head, c)
		emitChase(b, head, line+1)
		b.Release(head)
	})
	emit(k.reduce, func() { emitReduce(b, a, sum, n, k.flops, line+1) })
	emit(k.rowWalk, func() { emitRowWalk(b, a, bb, rows, cols, line+1) })
	emit(k.colWalk, func() { emitColWalk(b, a, bb, rows, cols, line+1) })
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, seqPhase(main), nil
}

// RodiniaSuite / SpecSuite name the suites as the figures do.
const (
	RodiniaSuite = "Rodinia 3.0"
	SpecSuite    = "SPEC CPU 2006"
)

func init() {
	// Rodinia 3.0 stand-ins (Figure 4). The real nn (a paper workload)
	// and streamcluster (a record-based case study) complete the suite.
	for _, k := range []suiteKernel{
		{name: "btree", desc: "B+-tree index queries", n: 1 << 18, chase: 12, gather: 4},
		{name: "cfd", desc: "Computational fluid dynamics solver", n: 1 << 18, stream: 4, stencil: 4, reduce: 2, flops: 4},
		{name: "heartwall", desc: "Heart wall tracking in ultrasound images", n: 1 << 17, stencil: 8, reduce: 4, flops: 2},
		{name: "lavamd", desc: "Molecular dynamics in a 3D grid", n: 1 << 16, reduce: 16, flops: 8},
		{name: "lud", desc: "LU matrix decomposition", n: 1 << 16, rowWalk: 8, colWalk: 4},
		{name: "nw", desc: "Needleman-Wunsch sequence alignment", n: 1 << 16, colWalk: 8, rowWalk: 2},
		{name: "particlefilter", desc: "Particle filter state estimation", n: 1 << 17, scatter: 6, reduce: 4, flops: 2},
		{name: "pathfinder", desc: "Dynamic-programming grid path search", n: 1 << 18, stencil: 6, stream: 2},
		{name: "srad", desc: "Speckle-reducing anisotropic diffusion", n: 1 << 18, stencil: 6, stream: 3},
	} {
		k.suite = RodiniaSuite
		register(k)
	}

	// SPEC CPU 2006 stand-ins (Figure 5). The real libquantum (a paper
	// workload) and mcf (a record-based case study) complete the suite.
	for _, k := range []suiteKernel{
		{name: "perlbench", desc: "Perl interpreter", n: 1 << 17, chase: 8, scatter: 4, gather: 2},
		{name: "bzip2", desc: "Burrows-Wheeler compression", n: 1 << 18, scatter: 6, gather: 4},
		{name: "gcc", desc: "C compiler", n: 1 << 17, chase: 6, gather: 6, scatter: 2},
		{name: "milc", desc: "Lattice QCD", n: 1 << 18, stream: 6, reduce: 3, flops: 4},
		{name: "namd", desc: "Molecular dynamics", n: 1 << 16, reduce: 14, flops: 8},
		{name: "gobmk", desc: "Go-playing AI", n: 1 << 16, gather: 8, scatter: 6},
		{name: "soplex", desc: "Linear-programming simplex solver", n: 1 << 16, rowWalk: 6, gather: 4},
		{name: "sjeng", desc: "Chess-playing AI", n: 1 << 16, gather: 6, scatter: 6},
		{name: "h264ref", desc: "H.264 video encoder", n: 1 << 18, stream: 4, stencil: 6},
		{name: "astar", desc: "Path-finding A* search", n: 1 << 17, gather: 6, chase: 6},
		{name: "sphinx3", desc: "Speech recognition", n: 1 << 17, reduce: 6, gather: 4, flops: 2},
	} {
		k.suite = SpecSuite
		register(k)
	}
}
