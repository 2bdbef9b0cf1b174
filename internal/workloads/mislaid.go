package workloads

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// mislaid is the A/B-loop fixture: a deliberately mis-laid-out record
// where the paper's first-choice advice is *legal but not optimal*, so
// only measuring the candidates finds the best layout.
//
//	struct mrec { long a; char blob[48]; long b; long c; };  // 72 bytes
//
// A dominant loop streams a alone; a second loop of equal weight reads a
// and b together; a light loop walks c. With 48 cold bytes between them,
// a and b never share a cache line in the original layout, so the
// co-access loop pays two misses per element and Equation 7 scores
// affinity(a,b) well above the clustering threshold — the advice groups
// {a,b}. That grouping fixes the co-access loop, but it also doubles the
// stride of the a-stream the dominant loop walks. The full split keeps
// the co-access loop's line density identical to the advice layout
// (two dense streams instead of one interleaved one) while halving the
// dominant loop's footprint — strictly fewer line fetches overall. The
// optimizer's measured ranking must discover this; the advice alone
// cannot.
type mislaid struct{}

func init() { register(mislaid{}) }

func (mislaid) Name() string  { return "mislaid" }
func (mislaid) Suite() string { return "fixtures" }
func (mislaid) Description() string {
	return "Advice-suboptimal layout: grouping the co-accessed pair loses to the full split"
}
func (mislaid) Parallel() bool { return false }

func (mislaid) Record() *prog.RecordSpec {
	return prog.MustRecord("mrec",
		prog.Field{Name: "a", Size: 8},
		prog.Field{Name: "blob", Size: 48},
		prog.Field{Name: "b", Size: 8},
		prog.Field{Name: "c", Size: 8},
	)
}

func (w mislaid) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(w, l)
	if err != nil {
		return nil, nil, err
	}
	n, reps := int64(8192), int64(6)
	if s == ScaleBench {
		n, reps = 32768, 12
	}

	b := prog.NewBuilder("mislaid")
	tids := b.RegisterLayout(l)
	bases := make([]int, l.NumArrays())
	for ai := 0; ai < l.NumArrays(); ai++ {
		name := "mrecs"
		if l.NumArrays() > 1 {
			name = l.Structs[ai].Name + "s"
		}
		bases[ai] = b.Global(name, n*int64(l.Structs[ai].Size), tids[ai])
	}

	main := b.Func("main", "mislaid.c")
	regs := make([]isa.Reg, l.NumArrays())
	for ai, g := range bases {
		regs[ai] = b.R()
		b.GAddr(regs[ai], g)
	}
	rep, i, x, y := b.R(), b.R(), b.R(), b.R()
	b.ForRange(rep, 0, reps, 1, func() {
		// scan(): the dominant stream over a alone.
		b.AtLine(10)
		b.ForRange(i, 0, n, 1, func() {
			b.LoadField(x, l, regs, i, "a")
			b.Add(y, y, x)
		})
		// pair(): a and b co-accessed in one loop — the source of the
		// high affinity(a,b) that seeds the advice.
		b.AtLine(20)
		b.ForRange(i, 0, n, 1, func() {
			b.LoadField(x, l, regs, i, "a")
			b.LoadField(y, l, regs, i, "b")
			b.Add(x, x, y)
		})
	})
	// audit(): one light pass over c so the cold tail is sampled too.
	b.AtLine(30)
	b.ForRange(i, 0, n, 1, func() {
		b.LoadField(x, l, regs, i, "c")
		b.Add(y, y, x)
	})
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, seqPhase(main), nil
}
