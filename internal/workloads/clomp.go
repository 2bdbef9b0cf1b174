package workloads

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
)

// clomp models LLNL's CLOMP 1.2 OpenMP benchmark (Section 6.5). Its zones
// are 24-byte records {int zoneId; int partId; double value; Zone
// *nextZone}, allocated by one thread and traversed by all four: the loop
// at clomp.c lines 328-337 chases nextZone accumulating value (the paper
// measures value at 44.7% and nextZone at 55.3% of the structure's
// latency, mutual affinity 1, affinity 0 with zoneId/partId), so the
// advice groups {value, nextZone} and moves the two id fields into a
// _ZoneHeader (Figure 11), for a 1.25× speedup at 4 threads.
type clomp struct{}

func init() { register(clomp{}) }

func (clomp) Name() string  { return "clomp" }
func (clomp) Suite() string { return "Lawrence Livermore National Laboratory CORAL" }
func (clomp) Description() string {
	return "Designed to measure OpenMP and multi-threading performance issues"
}
func (clomp) Parallel() bool { return true }

func (clomp) Record() *prog.RecordSpec {
	return prog.MustRecord("_Zone",
		prog.Field{Name: "zoneId", Size: 4},
		prog.Field{Name: "partId", Size: 4},
		prog.Field{Name: "value", Size: 8, Float: true},
		prog.Field{Name: "nextZone", Size: 8},
	)
}

func (w clomp) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(w, l)
	if err != nil {
		return nil, nil, err
	}
	vp, np := l.Place("value"), l.Place("nextZone")
	if vp.Arr != np.Arr {
		return nil, nil, fmt.Errorf("clomp: layout %v separates value from nextZone; the zone chase needs them together", l)
	}
	threads := int64(4)
	n := int64(65536) // zones, divisible by threads
	reps := int64(8)
	if s == ScaleBench {
		n, reps = 400000, 10
	}
	perPart := n / threads
	hotStride := int64(l.Structs[np.Arr].Size)

	b := prog.NewBuilder("clomp")
	tids := b.RegisterLayout(l)
	// pools[k] base addresses + per-thread part heads.
	poolsG := b.Global("zone_pools", int64(8*l.NumArrays()), -1)
	headsG := b.Global("part_heads", 8*threads, -1)
	sumsG := b.Global("part_sums", 8*threads, -1)

	// init (thread 0): allocate the zone pools on the heap — "this array
	// is allocated by one thread but accessed by all of the threads" —
	// fill ids and values, and chain nextZone within each part.
	initFn := b.Func("init_zones", "clomp.c")
	{
		poolsBase, headsBase := b.R(), b.R()
		b.GAddr(poolsBase, poolsG)
		b.GAddr(headsBase, headsG)
		sz := b.R()
		pools := make([]isa.Reg, l.NumArrays())
		b.AtLine(100)
		for ai := 0; ai < l.NumArrays(); ai++ {
			pools[ai] = b.R()
			b.MovI(sz, n*int64(l.Structs[ai].Size))
			b.Alloc(pools[ai], sz, tids[ai])
			b.Store(pools[ai], poolsBase, isa.RZ, 1, int64(8*ai), 8)
		}
		iv, addr, x, part, perPartReg := b.R(), b.R(), b.R(), b.R(), b.R()
		b.MovI(perPartReg, perPart)
		one := b.R()
		b.MovF(one, 1.0)
		fieldAddr := func(pl prog.Placement, idx isa.Reg) {
			b.MulI(addr, idx, int64(l.Structs[pl.Arr].Size))
			b.Add(addr, addr, pools[pl.Arr])
		}
		b.AtLine(110)
		b.ForRange(iv, 0, n, 1, func() {
			b.AtLine(111)
			zp := l.Place("zoneId")
			fieldAddr(zp, iv)
			b.Store(iv, addr, isa.RZ, 1, int64(zp.Offset), 4)
			b.Div(part, iv, perPartReg)
			pp := l.Place("partId")
			fieldAddr(pp, iv)
			b.Store(part, addr, isa.RZ, 1, int64(pp.Offset), 4)
			fieldAddr(vp, iv)
			b.Store(one, addr, isa.RZ, 1, int64(vp.Offset), 8)
			// nextZone: chain within the part; the last zone of each
			// part terminates.
			succ := b.R()
			b.AddI(x, iv, 1)
			b.Rem(x, x, perPartReg)
			b.If(isa.Eq, x, isa.RZ,
				func() { b.MovI(succ, 0) },
				func() {
					b.AddI(succ, iv, 1)
					b.MulI(succ, succ, hotStride)
					b.Add(succ, succ, pools[np.Arr])
				},
			)
			fieldAddr(np, iv)
			b.Store(succ, addr, isa.RZ, 1, int64(np.Offset), 8)
			b.Release(succ)
		})
		// Part heads.
		t := b.R()
		b.ForRange(t, 0, threads, 1, func() {
			b.Mul(x, t, perPartReg)
			b.MulI(x, x, hotStride)
			b.Add(x, x, pools[np.Arr])
			b.Store(x, headsBase, t, 8, 0, 8)
		})
		b.Ret()
	}

	// worker: Arg0 = thread id. The paper's loop at lines 328-337: chase
	// the part's zone list accumulating value.
	workerFn := b.Func("calc_deposit", "clomp.c")
	{
		headsBase, sumsBase := b.R(), b.R()
		b.GAddr(headsBase, headsG)
		b.GAddr(sumsBase, sumsG)
		rep, p, v, sum := b.R(), b.R(), b.R(), b.R()
		b.MovI(sum, 0)
		b.AtLine(328)
		b.ForRange(rep, 0, reps, 1, func() {
			b.AtLine(328)
			b.Load(p, headsBase, isa.ArgReg0, 8, 0, 8)
			b.WhileNZ(p, func() {
				b.AtLine(333)
				b.Load(v, p, isa.RZ, 1, int64(vp.Offset), 8)
				b.FAdd(sum, sum, v)
				b.AtLine(335)
				b.Load(p, p, isa.RZ, 1, int64(np.Offset), 8)
			})
		})
		b.Store(sum, sumsBase, isa.ArgReg0, 8, 0, 8)
		b.Ret()
	}

	main := b.Func("main", "clomp.c")
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, parallelPhases(initFn, workerFn, int(threads)), nil
}
