package workloads

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// streamcluster models Rodinia's streamcluster as a *case study beyond
// the paper*: its Point structure {float coord[dim]; float weight; long
// assign; float cost} is a known layout-optimization target — the
// distance kernel pgain() reads coordinates and weights of every point
// against candidate centers, while assign and cost are written only when
// a point switches clusters. The advice should keep {coord, weight}
// together and move {assign, cost} out of the scan.
//
// streamcluster doubles as a Rodinia-suite member for the Figure 4
// overhead sweep.
type streamcluster struct{}

func init() { register(streamcluster{}) }

func (streamcluster) Name() string        { return "streamcluster" }
func (streamcluster) Suite() string       { return "Rodinia 3.0" }
func (streamcluster) Description() string { return "Online stream clustering" }
func (streamcluster) Parallel() bool      { return false }

func (streamcluster) Record() *prog.RecordSpec {
	return prog.MustRecord("Point",
		prog.Field{Name: "coord", Size: 32}, // 4 × float64 dimensions
		prog.Field{Name: "weight", Size: 8, Float: true},
		prog.Field{Name: "assign", Size: 8},
		prog.Field{Name: "cost", Size: 8, Float: true},
	)
}

func (w streamcluster) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(w, l)
	if err != nil {
		return nil, nil, err
	}
	n := int64(32768)
	reps := int64(8) // pgain passes (candidate centers tried)
	if s == ScaleBench {
		n, reps = 200000, 10
	}

	b := prog.NewBuilder("streamcluster")
	tids := b.RegisterLayout(l)
	ptG := make([]int, l.NumArrays())
	for ai := range ptG {
		ptG[ai] = b.Global("points."+l.Structs[ai].Name, n*int64(l.Structs[ai].Size), tids[ai])
	}

	main := b.Func("main", "streamcluster.c")
	bases := make([]isa.Reg, l.NumArrays())
	for ai := range bases {
		bases[ai] = b.R()
		b.GAddr(bases[ai], ptG[ai])
	}

	// Load points: all fields once.
	iv, x := b.R(), b.R()
	b.AtLine(40)
	b.ForRange(iv, 0, n, 1, func() {
		b.AtLine(41)
		b.CvtIF(x, iv)
		b.StoreField(x, l, bases, iv, "coord")
		b.StoreField(x, l, bases, iv, "weight")
		b.StoreField(isa.RZ, l, bases, iv, "assign")
		b.StoreField(x, l, bases, iv, "cost")
	})

	// pgain: for each candidate center, scan all points computing the
	// weighted distance over the coordinate block; then — as in the real
	// code, where membership switches happen after the gain decision —
	// a separate pass reassigns the few points that switch.
	rep, c0, c1, wt, d, acc := b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
	cp := l.Place("coord")
	coordStride := int64(l.Structs[cp.Arr].Size)
	b.AtLine(653)
	b.ForRange(rep, 0, reps, 1, func() {
		// Distance scan (streamcluster.c:653-661).
		b.AtLine(653)
		b.ForRange(iv, 0, n, 1, func() {
			b.AtLine(655)
			// Touch two words of the 32-byte coordinate block plus the
			// weight; accumulate a distance.
			addr := b.R()
			b.MulI(addr, iv, coordStride)
			b.Add(addr, addr, bases[cp.Arr])
			b.Load(c0, addr, isa.RZ, 1, int64(cp.Offset), 8)
			b.Load(c1, addr, isa.RZ, 1, int64(cp.Offset)+24, 8)
			b.Release(addr)
			b.LoadField(wt, l, bases, iv, "weight")
			b.FSub(d, c0, c1)
			b.FMul(d, d, d)
			b.FMul(d, d, wt)
			b.FAdd(acc, acc, d)
		})
		// Membership switch pass (streamcluster.c:670-674): one point
		// in 512 changes clusters.
		b.AtLine(670)
		b.ForRange(iv, 0, n/512, 1, func() {
			b.AtLine(672)
			idx := b.R()
			b.MulI(idx, iv, 512)
			b.StoreField(rep, l, bases, idx, "assign")
			b.StoreField(acc, l, bases, idx, "cost")
			b.Release(idx)
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
