package workloads

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// falseshare is the planted false-sharing fixture (the multithreaded
// analog of quickstart): a per-thread statistics slot
//
//	struct _Stat { long hits; long ticks; };   // 16 bytes
//
// kept in a dense array indexed by thread id. Each of the four workers
// increments only its own slot — every address is written by exactly one
// thread — yet all four slots fit in a single 64-byte cache line, so the
// line ping-pongs between the cores on every increment: textbook false
// sharing, invisible to a per-thread locality profile. The sharing
// analyzer must classify hits and ticks as thread-private with a 16-byte
// per-thread write stride and predict the cross-thread line conflict
// statically; the coherence verifier confirms it from the directory's
// write-invalidation traffic.
//
// PaddedFalseShare is the same kernel with the advice applied — each slot
// padded out to its own cache line — and must run measurably faster.
type falseshare struct {
	// linePad, when positive, pads each element stride up to a multiple
	// of it (the "pad struct to the line" advice); 0 is the dense layout.
	linePad int
}

func init() { register(falseshare{}) }

// PaddedFalseShare returns the falseshare fixture with every element
// padded to a multiple of line bytes — the advice-applied variant the
// examples and tests measure against the dense original.
func PaddedFalseShare(line int) Workload { return falseshare{linePad: line} }

func (falseshare) Name() string  { return "falseshare" }
func (falseshare) Suite() string { return "fixtures" }
func (falseshare) Description() string {
	return "Planted false sharing: per-thread counters packed into one cache line"
}
func (falseshare) Parallel() bool { return true }

func (falseshare) Record() *prog.RecordSpec {
	return prog.MustRecord("_Stat",
		prog.Field{Name: "hits", Size: 8},
		prog.Field{Name: "ticks", Size: 8},
	)
}

func (w falseshare) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(w, l)
	if err != nil {
		return nil, nil, err
	}
	threads := int64(4)
	reps := int64(20000)
	if s == ScaleBench {
		reps = 400000
	}

	b := prog.NewBuilder("falseshare")
	// Element strides: the struct size, or — with the padding advice
	// applied — the size rounded up to the line. The padded struct is
	// registered under its true stride so address attribution stays exact.
	strides := make([]int64, l.NumArrays())
	tids := make([]int, l.NumArrays())
	statG := make([]int, l.NumArrays())
	for ai, st := range l.Structs {
		stride := int64(st.Size)
		if w.linePad > 0 {
			stride = (stride + int64(w.linePad) - 1) / int64(w.linePad) * int64(w.linePad)
		}
		if stride != int64(st.Size) {
			padded := *st
			padded.Size = int(stride)
			tids[ai] = b.Type(&padded)
		} else {
			tids[ai] = b.Type(st)
		}
		strides[ai] = stride
		statG[ai] = b.Global("stats."+st.Name, threads*stride, tids[ai])
	}
	place := func(field string) (g int, stride, off int64) {
		pl := l.Place(field)
		return statG[pl.Arr], strides[pl.Arr], int64(pl.Offset)
	}
	hG, hStride, hOff := place("hits")
	tG, tStride, tOff := place("ticks")

	// init (thread 0): zero every thread's slot.
	initFn := b.Func("init_stats", "falseshare.c")
	{
		hBase, tBase, t := b.R(), b.R(), b.R()
		b.GAddr(hBase, hG)
		b.GAddr(tBase, tG)
		b.AtLine(10)
		b.ForRange(t, 0, threads, 1, func() {
			b.AtLine(11)
			b.Store(isa.RZ, hBase, t, int(hStride), hOff, 8)
			b.Store(isa.RZ, tBase, t, int(tStride), tOff, 8)
		})
		b.Ret()
	}

	// worker: Arg0 = thread id. The hot loop bumps only this thread's
	// counters — falseshare.c lines 21-24 — so every store is
	// thread-private, yet neighbor slots share the line.
	workerFn := b.Func("count_events", "falseshare.c")
	{
		hBase, tBase, rep, v := b.R(), b.R(), b.R(), b.R()
		b.GAddr(hBase, hG)
		b.GAddr(tBase, tG)
		b.AtLine(20)
		b.ForRange(rep, 0, reps, 1, func() {
			b.AtLine(21)
			b.Load(v, hBase, isa.ArgReg0, int(hStride), hOff, 8)
			b.AddI(v, v, 1)
			b.Store(v, hBase, isa.ArgReg0, int(hStride), hOff, 8)
			b.AtLine(23)
			b.Load(v, tBase, isa.ArgReg0, int(tStride), tOff, 8)
			b.Add(v, v, rep)
			b.Store(v, tBase, isa.ArgReg0, int(tStride), tOff, 8)
		})
		b.Ret()
	}

	main := b.Func("main", "falseshare.c")
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, parallelPhases(initFn, workerFn, int(threads)), nil
}
