package workloads

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// art models SPEC CPU 2000's 179.art (Section 6.1 of the paper): a neural
// network whose f1_layer is an array of f1_neuron structs with eight
// fields I, W, X, V, U, P, Q, R. The paper's Table 6 lists nine loops in
// scanner.c touching specific field subsets with a heavily skewed latency
// distribution (loop 615-616, P only, carries 56.6%); Table 5 gives the
// per-field latencies; Figure 6/7 show the resulting affinity clusters
// {I,U}, {X,Q}, {P}, {V}, {W}, {R}. This reconstruction reproduces those
// loops at the same source lines with iteration weights matching the
// published latency shares.
type art struct{}

func init() { register(art{}) }

func (art) Name() string        { return "art" }
func (art) Suite() string       { return "SPEC CPU 2000" }
func (art) Description() string { return "Neural network based object recognition in a thermal image" }
func (art) Parallel() bool      { return false }

func (art) Record() *prog.RecordSpec {
	return prog.MustRecord("f1_neuron",
		prog.Field{Name: "I", Size: 8}, // double* in the original
		prog.Field{Name: "W", Size: 8, Float: true},
		prog.Field{Name: "X", Size: 8, Float: true},
		prog.Field{Name: "V", Size: 8, Float: true},
		prog.Field{Name: "U", Size: 8, Float: true},
		prog.Field{Name: "P", Size: 8, Float: true},
		prog.Field{Name: "Q", Size: 8, Float: true},
		prog.Field{Name: "R", Size: 8, Float: true},
	)
}

// artLoop describes one of Table 6's loops: its scanner.c line range, its
// scan repetition count (the latency weight), the fields it loads and the
// fields it stores back.
type artLoop struct {
	lineLo, lineHi int
	reps           int64
	loads          []string
	stores         []string
}

// artLoops reproduces Table 6. Weights are scan counts chosen so each
// loop's share of f1_neuron latency lands near the paper's percentages
// (e.g. 615-616 ≈ 57%).
var artLoops = []artLoop{
	{131, 138, 2, []string{"U", "P"}, nil},
	{545, 548, 11, []string{"U", "I"}, []string{"U"}},
	{553, 554, 2, []string{"W"}, []string{"W"}},
	{559, 570, 8, []string{"X", "Q"}, []string{"X"}},
	{575, 576, 4, []string{"V"}, []string{"V"}},
	{589, 592, 2, []string{"U", "P"}, []string{"P"}},
	{607, 608, 14, []string{"P"}, []string{"P"}},
	{615, 616, 57, []string{"P"}, nil},
	{1015, 1016, 1, []string{"I"}, nil},
}

func (a art) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(a, l)
	if err != nil {
		return nil, nil, err
	}
	n := int64(8192)
	if s == ScaleBench {
		n = 24000
	}

	b := prog.NewBuilder("art")
	tids := b.RegisterLayout(l)
	arrG := make([]int, l.NumArrays())
	for ai := range arrG {
		arrG[ai] = b.Global("f1_layer."+l.Structs[ai].Name, n*int64(l.Structs[ai].Size), tids[ai])
	}

	main := b.Func("main", "scanner.c")
	bases := make([]isa.Reg, l.NumArrays())
	for ai := range bases {
		bases[ai] = b.R()
		b.GAddr(bases[ai], arrG[ai])
	}

	// Initialization (the original's weight/input setup): write every
	// field once.
	b.AtLine(80)
	iv, x, acc := b.R(), b.R(), b.R()
	b.ForRange(iv, 0, n, 1, func() {
		b.CvtIF(x, iv)
		for _, f := range a.Record().Fields {
			b.StoreField(x, l, bases, iv, f.Name)
		}
	})

	// The simulated training/match pass: Table 6's loops, each scanning
	// the layer reps times.
	rep := b.R()
	for _, lp := range artLoops {
		b.AtLine(lp.lineLo)
		b.ForRange(rep, 0, lp.reps, 1, func() {
			b.AtLine(lp.lineLo)
			b.ForRange(iv, 0, n, 1, func() {
				b.AtLine(lp.lineHi)
				b.MovI(acc, 0)
				for _, f := range lp.loads {
					b.LoadField(x, l, bases, iv, f)
					b.FAdd(acc, acc, x)
				}
				for _, f := range lp.stores {
					b.StoreField(acc, l, bases, iv, f)
				}
			})
		})
	}
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, seqPhase(main), nil
}
