package workloads

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// quickstart is the tutorial fixture for `structslim vet`: a deliberately
// badly laid-out record whose problems the layout linter can name without
// any profile. The qrec struct mixes a 4-byte key before an 8-byte value
// (4-byte hole), a 1-byte tag before an 8-byte weight (7-byte hole), and a
// 5-byte note that forces trailing padding. The kernel touches key/val in
// one loop and weight in another, so their static access sets never
// co-occur, while tag and note are never accessed at all — cold bytes
// riding along in every cache line.
type quickstart struct{}

func init() { register(quickstart{}) }

func (quickstart) Name() string        { return "quickstart" }
func (quickstart) Suite() string       { return "StructSlim tutorial" }
func (quickstart) Description() string { return "padded record walked by two disjoint loops" }
func (quickstart) Parallel() bool      { return false }

func (quickstart) Record() *prog.RecordSpec {
	return prog.MustRecord("qrec",
		prog.Field{Name: "key", Size: 4},
		prog.Field{Name: "val", Size: 8},
		prog.Field{Name: "tag", Size: 1},
		prog.Field{Name: "weight", Size: 8, Float: true},
		prog.Field{Name: "note", Size: 5},
	)
}

func (w quickstart) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(w, l)
	if err != nil {
		return nil, nil, err
	}
	n, reps := int64(2048), int64(64)
	if s == ScaleBench {
		n, reps = 65536, 100
	}

	b := prog.NewBuilder("quickstart")
	tids := b.RegisterLayout(l)
	bases := make([]int, l.NumArrays())
	for ai := 0; ai < l.NumArrays(); ai++ {
		name := "qrecs"
		if l.NumArrays() > 1 {
			name = l.Structs[ai].Name + "s"
		}
		bases[ai] = b.Global(name, n*int64(l.Structs[ai].Size), tids[ai])
	}

	kp, vp, wp := l.Place("key"), l.Place("val"), l.Place("weight")
	main := b.Func("main", "quickstart.c")
	rep, i, sum, x := b.R(), b.R(), b.R(), b.R()
	baseRegs := make([]isa.Reg, l.NumArrays()) // per-array base registers
	for ai, g := range bases {
		baseRegs[ai] = b.R()
		b.GAddr(baseRegs[ai], g)
	}
	b.ForRange(rep, 0, reps, 1, func() {
		// accumulate(): reads key and val of every record.
		b.AtLine(12)
		b.ForRange(i, 0, n, 1, func() {
			b.Load(x, baseRegs[kp.Arr], i, l.Structs[kp.Arr].Size, int64(kp.Offset), 4)
			b.Add(sum, sum, x)
			b.Load(x, baseRegs[vp.Arr], i, l.Structs[vp.Arr].Size, int64(vp.Offset), 8)
			b.Add(sum, sum, x)
		})
		// decay(): scales weight of every record; tag and note stay cold.
		b.AtLine(20)
		b.ForRange(i, 0, n, 1, func() {
			b.Load(x, baseRegs[wp.Arr], i, l.Structs[wp.Arr].Size, int64(wp.Offset), 8)
			b.FMul(x, x, x)
			b.Store(x, baseRegs[wp.Arr], i, l.Structs[wp.Arr].Size, int64(wp.Offset), 8)
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
