package workloads

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// libquantum models SPEC CPU 2006's 462.libquantum (Section 6.2): the
// quantum register is an array of quantum_reg_node_struct with a 16-byte
// COMPLEX_FLOAT amplitude and an 8-byte MAX_UNSIGNED state. The paper's
// three hot loops (gates.c lines 61-66, 89-98, 170-174 — toffoli, sigma_x
// and cnot) read and flip state bits and account for 15.5%, 40.8% and
// 43.4% of the structure's latency; amplitude is practically untouched,
// so the advice separates state from amplitude (Figure 8).
type libquantum struct{}

func init() { register(libquantum{}) }

func (libquantum) Name() string        { return "libquantum" }
func (libquantum) Suite() string       { return "SPEC CPU 2006" }
func (libquantum) Description() string { return "Simulation of quantum computer" }
func (libquantum) Parallel() bool      { return false }

func (libquantum) Record() *prog.RecordSpec {
	return prog.MustRecord("quantum_reg_node_struct",
		prog.Field{Name: "amplitude", Size: 16}, // COMPLEX_FLOAT
		prog.Field{Name: "state", Size: 8},      // MAX_UNSIGNED
	)
}

func (q libquantum) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(q, l)
	if err != nil {
		return nil, nil, err
	}
	n := int64(16384)
	if s == ScaleBench {
		n = 65536
	}

	b := prog.NewBuilder("libquantum")
	tids := b.RegisterLayout(l)
	arrG := make([]int, l.NumArrays())
	for ai := range arrG {
		arrG[ai] = b.Global("reg.node."+l.Structs[ai].Name, n*int64(l.Structs[ai].Size), tids[ai])
	}

	main := b.Func("main", "gates.c")
	bases := make([]isa.Reg, l.NumArrays())
	for ai := range bases {
		bases[ai] = b.R()
		b.GAddr(bases[ai], arrG[ai])
	}

	// Register initialization: state = i, amplitude = 1.0 (writes both
	// fields once, as quantum_new_qureg does).
	b.AtLine(30)
	iv, x, mask := b.R(), b.R(), b.R()
	one := b.R()
	b.MovF(one, 1.0)
	b.ForRange(iv, 0, n, 1, func() {
		b.StoreField(iv, l, bases, iv, "state")
		b.StoreField(one, l, bases, iv, "amplitude")
	})

	// Gate loops: read state, test/flip a bit, write state back. The
	// iteration weights land the paper's 15.5 / 40.8 / 43.4 split.
	gate := func(lineLo, lineHi int, reps int64, bit int64) {
		rep, t1 := b.R(), b.R()
		b.AtLine(lineLo)
		b.ForRange(rep, 0, reps, 1, func() {
			b.AtLine(lineLo)
			b.ForRange(iv, 0, n, 1, func() {
				b.AtLine(lineHi)
				b.LoadField(x, l, bases, iv, "state")
				// Control/target bit manipulation: the real gate tests
				// control bits, composes the target mask, and updates
				// the basis state — a dozen ALU ops that keep the loop
				// from being purely memory-bound (the paper's speedup
				// here is only 1.09× despite an 82% L2-miss reduction).
				b.MovI(mask, bit)
				b.And(t1, x, mask)
				b.Shl(t1, t1, mask)
				b.Or(t1, t1, x)
				b.Mul(t1, t1, mask)
				b.Mul(t1, t1, t1)
				b.Xor(x, x, mask)
				b.StoreField(x, l, bases, iv, "state")
			})
		})
		b.Release(rep, t1)
	}
	gate(61, 66, 3, 1)   // quantum_toffoli
	gate(89, 98, 8, 2)   // quantum_sigma_x
	gate(170, 174, 9, 4) // quantum_cnot

	// One normalization-style pass over amplitude (negligible weight, as
	// the paper reports ~0% latency for amplitude).
	b.AtLine(200)
	b.ForRange(iv, 0, n, 1, func() {
		b.AtLine(201)
		b.LoadField(x, l, bases, iv, "amplitude")
		b.FMul(x, x, x)
	})
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, seqPhase(main), nil
}
