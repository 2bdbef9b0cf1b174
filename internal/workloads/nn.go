package workloads

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// nn models Rodinia 3.0's NN (k-nearest-neighbours, Section 6.7): the
// candidate set is an array of struct neighbor {char entry[REC_LENGTH];
// double dist} — 49 record bytes padded so dist sits at offset 56 and the
// whole struct fills one 64-byte cache line. The hot loop at nn.c lines
// 117-120 scans dist looking for the minimum and never touches entry
// (dist: 99.1% of the structure's latency, affinity 0 with entry), so the
// advice splits the two (Figure 13): the dist scan then touches 8 bytes
// per line instead of 64, and the paper gets 1.33× at 4 threads.
type nn struct{}

func init() { register(nn{}) }

// recLength mirrors Rodinia's REC_LENGTH.
const recLength = 49

func (nn) Name() string        { return "nn" }
func (nn) Suite() string       { return "Rodinia 3.0" }
func (nn) Description() string { return "Find k-nearest neighbour from unstructured data set" }
func (nn) Parallel() bool      { return true }

func (nn) Record() *prog.RecordSpec {
	return prog.MustRecord("neighbor",
		prog.Field{Name: "entry", Size: recLength},
		prog.Field{Name: "dist", Size: 8, Float: true},
	)
}

func (w nn) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(w, l)
	if err != nil {
		return nil, nil, err
	}
	threads := int64(4)
	n := int64(65536)
	reps := int64(6)
	if s == ScaleBench {
		n, reps = 196608, 8 // 12 MB of records: L3-resident, past the L2s
	}
	perPart := n / threads

	b := prog.NewBuilder("nn")
	tids := b.RegisterLayout(l)
	recG := make([]int, l.NumArrays())
	for ai := range recG {
		recG[ai] = b.Global("records."+l.Structs[ai].Name, n*int64(l.Structs[ai].Size), tids[ai])
	}
	minsG := b.Global("thread_mins", 8*threads, -1)

	// init (thread 0): fill each record's dist with a scrambled positive
	// value and stamp the first word of its entry text.
	initFn := b.Func("load_records", "nn.c")
	{
		bases := make([]isa.Reg, l.NumArrays())
		for ai := range bases {
			bases[ai] = b.R()
			b.GAddr(bases[ai], recG[ai])
		}
		iv, x, nReg := b.R(), b.R(), b.R()
		b.MovI(nReg, n)
		b.AtLine(60)
		b.ForRange(iv, 0, n, 1, func() {
			b.AtLine(61)
			b.MulI(x, iv, 48271)
			b.Rem(x, x, nReg)
			b.AddI(x, x, 1)
			b.CvtIF(x, x)
			b.StoreField(x, l, bases, iv, "dist")
			b.StoreField(iv, l, bases, iv, "entry")
		})
		b.Ret()
	}

	// worker (Arg0 = thread id): the lines 117-120 minimum-distance scan
	// over the thread's shard, dist only, repeated. Positive IEEE-754
	// doubles order like their bit patterns, so the integer compare is
	// exact.
	workerFn := b.Func("find_nearest", "nn.c")
	{
		bases := make([]isa.Reg, l.NumArrays())
		for ai := range bases {
			bases[ai] = b.R()
			b.GAddr(bases[ai], recG[ai])
		}
		minsBase := b.R()
		b.GAddr(minsBase, minsG)
		rep, i, idx, d, best, start := b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
		b.MovI(start, perPart)
		b.Mul(start, start, isa.ArgReg0)
		b.MovF(best, 1e300) // +∞ as float bits: positive doubles order like their bit patterns
		b.AtLine(117)
		b.ForRange(rep, 0, reps, 1, func() {
			b.AtLine(117)
			b.ForRange(i, 0, perPart, 1, func() {
				b.AtLine(118)
				b.Add(idx, i, start)
				b.LoadField(d, l, bases, idx, "dist")
				b.If(isa.Lt, d, best, func() { b.Mov(best, d) }, nil)
			})
		})
		b.Store(best, minsBase, isa.ArgReg0, 8, 0, 8)

		// One pass reading the winners' entry text (lines 130-131):
		// touch the entry header of every 64th record — the 0.9% the
		// paper attributes to entry.
		b.AtLine(130)
		b.ForRange(i, 0, perPart/64, 1, func() {
			b.AtLine(131)
			b.MulI(idx, i, 64)
			b.Add(idx, idx, start)
			b.LoadField(d, l, bases, idx, "entry")
		})
		b.Ret()
	}

	main := b.Func("main", "nn.c")
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, parallelPhases(initFn, workerFn, int(threads)), nil
}
