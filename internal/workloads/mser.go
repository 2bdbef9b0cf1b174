package workloads

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// mser models SD-VBS's MSER image analyzer (Section 6.4). The program's
// time is dominated by image-processing streams over pixel arrays, but
// its union-find forest is an array of 16-byte node_t records
// {parent, shortcut, region, area} whose root-finding loop at mser.c
// lines 679-683 touches only parent — the paper attributes 21.2% of
// total latency to node_t, finds parent at offset 0 with stride 16, and
// splits parent out into its own array (Figure 10), for a modest 1.03×.
type mser struct{}

func init() { register(mser{}) }

func (mser) Name() string        { return "mser" }
func (mser) Suite() string       { return "The San Diego Vision Benchmark Suite" }
func (mser) Description() string { return "Image analyser for face detection" }
func (mser) Parallel() bool      { return false }

func (mser) Record() *prog.RecordSpec {
	return prog.MustRecord("node_t",
		prog.Field{Name: "parent", Size: 4},
		prog.Field{Name: "shortcut", Size: 4},
		prog.Field{Name: "region", Size: 4},
		prog.Field{Name: "area", Size: 4},
	)
}

func (w mser) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(w, l)
	if err != nil {
		return nil, nil, err
	}
	n := int64(32768) // union-find nodes (one per pixel region seed)
	m := int64(65536) // image pixels
	reps := int64(6)  // root-scan passes
	if s == ScaleBench {
		n, m, reps = 200000, 400000, 8
	}

	b := prog.NewBuilder("mser")
	tids := b.RegisterLayout(l)
	nodeG := make([]int, l.NumArrays())
	for ai := range nodeG {
		nodeG[ai] = b.Global("nodes."+l.Structs[ai].Name, n*int64(l.Structs[ai].Size), tids[ai])
	}
	imgG := b.Global("img", m*8, -1)
	gradG := b.Global("grad", m*8, -1)

	main := b.Func("main", "mser.c")
	bases := make([]isa.Reg, l.NumArrays())
	for ai := range bases {
		bases[ai] = b.R()
		b.GAddr(bases[ai], nodeG[ai])
	}
	img, grad := b.R(), b.R()
	b.GAddr(img, imgG)
	b.GAddr(grad, gradG)

	// Image preprocessing: the latency bulk that is *not* a splitting
	// candidate (dense unit-stride arrays).
	b.AtLine(300)
	initLinear(b, img, m, 300)
	emitStencil(b, grad, img, m, 320)
	sum := b.R()
	b.MovI(sum, 0)
	emitReduce(b, grad, sum, m, 1, 340)
	emitStencil(b, img, grad, m, 360)
	emitStencil(b, grad, img, m, 380)
	emitReduce(b, img, sum, m, 2, 400)

	// Union-find initialization: parent points at the 8-aligned root of
	// each block; the other bookkeeping fields are written once.
	b.AtLine(600)
	iv, x := b.R(), b.R()
	root := b.R()
	b.ForRange(iv, 0, n, 1, func() {
		b.AtLine(601)
		b.MovI(x, ^int64(7))
		b.And(root, iv, x)
		b.StoreField(root, l, bases, iv, "parent")
		b.StoreField(iv, l, bases, iv, "shortcut")
		b.StoreField(iv, l, bases, iv, "region")
		b.StoreField(isa.RZ, l, bases, iv, "area")
	})

	// The hot root-finding scan (paper: lines 679-683, parent only, one
	// level of chasing per node here since parents point at roots).
	rep, par := b.R(), b.R()
	b.AtLine(679)
	b.ForRange(rep, 0, reps, 1, func() {
		b.AtLine(679)
		b.ForRange(iv, 0, n, 1, func() {
			b.AtLine(682)
			b.LoadField(par, l, bases, iv, "parent")
			// One hop: parent[parent[i]] (roots are self-parented).
			b.LoadField(par, l, bases, par, "parent")
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
