package workloads

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// mcf models SPEC CPU 2006's 429.mcf network-simplex solver as a *case
// study beyond the paper*: mcf's arc array is the canonical structure-
// splitting example in the data-layout literature (Chilimbi et al. split
// it by hand years before StructSlim). The pricing loop scans every arc
// reading cost, tail, head, and ident to compute reduced costs, while
// flow is written only for the rare arcs entering the basis and org_cost
// is never touched after setup — so the advice should keep
// {cost, tail, head, ident} hot and move {flow} and {org_cost} away.
//
// mcf doubles as a SPEC-suite member for the Figure 5 overhead sweep.
type mcf struct{}

func init() { register(mcf{}) }

func (mcf) Name() string        { return "mcf" }
func (mcf) Suite() string       { return "SPEC CPU 2006" }
func (mcf) Description() string { return "Vehicle scheduling by network simplex" }
func (mcf) Parallel() bool      { return false }

func (mcf) Record() *prog.RecordSpec {
	return prog.MustRecord("arc",
		prog.Field{Name: "cost", Size: 8},
		prog.Field{Name: "tail", Size: 8}, // node index
		prog.Field{Name: "head", Size: 8}, // node index
		prog.Field{Name: "ident", Size: 4},
		prog.Field{Name: "flow", Size: 8},
		prog.Field{Name: "org_cost", Size: 8},
	)
}

func (w mcf) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(w, l)
	if err != nil {
		return nil, nil, err
	}
	arcs := int64(32768)
	nodes := int64(4096)
	reps := int64(6) // pricing iterations
	if s == ScaleBench {
		arcs, nodes, reps = 300000, 32768, 8
	}

	b := prog.NewBuilder("mcf")
	tids := b.RegisterLayout(l)
	arcG := make([]int, l.NumArrays())
	for ai := range arcG {
		arcG[ai] = b.Global("arcs."+l.Structs[ai].Name, arcs*int64(l.Structs[ai].Size), tids[ai])
	}
	potG := b.Global("node_potential", nodes*8, -1)

	main := b.Func("main", "pbeampp.c")
	bases := make([]isa.Reg, l.NumArrays())
	for ai := range bases {
		bases[ai] = b.R()
		b.GAddr(bases[ai], arcG[ai])
	}
	pot := b.R()
	b.GAddr(pot, potG)

	// Network setup: node potentials, then every arc field once.
	iv, x, nReg := b.R(), b.R(), b.R()
	b.AtLine(20)
	b.ForRange(iv, 0, nodes, 1, func() {
		b.Store(iv, pot, iv, 8, 0, 8)
	})
	b.MovI(nReg, nodes)
	b.AtLine(30)
	b.ForRange(iv, 0, arcs, 1, func() {
		b.AtLine(31)
		b.MulI(x, iv, 40503)
		b.Rem(x, x, nReg)
		b.StoreField(x, l, bases, iv, "tail")
		b.MulI(x, iv, 48271)
		b.Rem(x, x, nReg)
		b.StoreField(x, l, bases, iv, "head")
		b.StoreField(iv, l, bases, iv, "cost")
		b.StoreField(iv, l, bases, iv, "ident")
		b.StoreField(isa.RZ, l, bases, iv, "flow")
		b.StoreField(iv, l, bases, iv, "org_cost")
	})

	// primal_bea_mpp: the pricing scan. red_cost = cost − pot[tail] +
	// pot[head]; the most negative arcs enter the basket. As in real
	// mcf, flow updates happen in a *separate* pass over the basket
	// (flow_cost.c), not inside the pricing loop — which is exactly why
	// flow has low loop-level affinity with the pricing fields.
	basketG := b.Global("basket", arcs/64*8, -1)
	basket := b.R()
	b.GAddr(basket, basketG)
	rep, cost, tl, hd, id, red, pt := b.R(), b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
	acc := b.R()
	b.AtLine(165)
	b.ForRange(rep, 0, reps, 1, func() {
		// Pricing scan (pbeampp.c:165-176).
		b.AtLine(165)
		b.ForRange(iv, 0, arcs, 1, func() {
			b.AtLine(167)
			b.LoadField(cost, l, bases, iv, "cost")
			b.LoadField(tl, l, bases, iv, "tail")
			b.LoadField(hd, l, bases, iv, "head")
			b.LoadField(id, l, bases, iv, "ident")
			b.Load(pt, pot, tl, 8, 0, 8)
			b.Sub(red, cost, pt)
			b.Load(pt, pot, hd, 8, 0, 8)
			b.Add(red, red, pt)
			b.Add(acc, acc, red)
			_ = id
		})
		// Basket flow update (flow_cost.c:90-94): one arc in 64.
		b.AtLine(90)
		b.ForRange(iv, 0, arcs/64, 1, func() {
			b.AtLine(92)
			b.MulI(red, iv, 64)
			b.StoreField(rep, l, bases, red, "flow")
			b.Store(rep, basket, iv, 8, 0, 8)
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
