package workloads

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// health models the Barcelona OpenMP Task Suite's Health simulation
// (Section 6.6): a Colombian health-care model whose patients are 40-byte
// records {int id; int seconds; int time; int hosps_visited; Village
// *home_village; Patient *back; Patient *forward} kept on linked lists.
// The hot loop at health.c line 96 scans waiting queues touching only
// forward; the paper finds forward with low affinity to every other field
// and splits it out (Figure 12) for a 1.12× speedup at 4 threads.
//
// Patients are carved from per-run arenas (BOTS allocates them from
// village-owned pools), so list order follows arena order and the
// forward-chase has the constant 40-byte stride the GCD analysis
// recovers.
type health struct{}

func init() { register(health{}) }

func (health) Name() string        { return "health" }
func (health) Suite() string       { return "The Barcelona OpenMP Task Suite" }
func (health) Description() string { return "Columbian health care simulation" }
func (health) Parallel() bool      { return true }

func (health) Record() *prog.RecordSpec {
	return prog.MustRecord("Patient",
		prog.Field{Name: "id", Size: 4},
		prog.Field{Name: "seconds", Size: 4},
		prog.Field{Name: "time", Size: 4},
		prog.Field{Name: "hosps_visited", Size: 4},
		prog.Field{Name: "home_village", Size: 8},
		prog.Field{Name: "back", Size: 8},
		prog.Field{Name: "forward", Size: 8},
	)
}

func (w health) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(w, l)
	if err != nil {
		return nil, nil, err
	}
	fp := l.Place("forward")
	threads := int64(4)
	n := int64(65536)
	reps := int64(8) // queue scans per thread
	if s == ScaleBench {
		n, reps = 400000, 10
	}
	perPart := n / threads
	fwdStride := int64(l.Structs[fp.Arr].Size)

	b := prog.NewBuilder("health")
	tids := b.RegisterLayout(l)
	poolsG := b.Global("patient_pools", int64(8*l.NumArrays()), -1)
	headsG := b.Global("queue_heads", 8*threads, -1)

	// sim_village_init (thread 0): allocate the patient arenas, populate
	// every field, chain forward within each thread's queue.
	initFn := b.Func("allocate_village", "health.c")
	{
		poolsBase, headsBase := b.R(), b.R()
		b.GAddr(poolsBase, poolsG)
		b.GAddr(headsBase, headsG)
		sz := b.R()
		pools := make([]isa.Reg, l.NumArrays())
		b.AtLine(40)
		for ai := 0; ai < l.NumArrays(); ai++ {
			pools[ai] = b.R()
			b.MovI(sz, n*int64(l.Structs[ai].Size))
			b.Alloc(pools[ai], sz, tids[ai])
			b.Store(pools[ai], poolsBase, isa.RZ, 1, int64(8*ai), 8)
		}
		iv, addr, x, perPartReg := b.R(), b.R(), b.R(), b.R()
		b.MovI(perPartReg, perPart)
		fieldAddr := func(pl prog.Placement, idx isa.Reg) {
			b.MulI(addr, idx, int64(l.Structs[pl.Arr].Size))
			b.Add(addr, addr, pools[pl.Arr])
		}
		store4 := func(field string, val isa.Reg, idx isa.Reg) {
			pl := l.Place(field)
			fieldAddr(pl, idx)
			b.Store(val, addr, isa.RZ, 1, int64(pl.Offset), 4)
		}
		b.AtLine(50)
		b.ForRange(iv, 0, n, 1, func() {
			b.AtLine(51)
			store4("id", iv, iv)
			store4("seconds", iv, iv)
			store4("time", isa.RZ, iv)
			store4("hosps_visited", isa.RZ, iv)
			vp := l.Place("home_village")
			fieldAddr(vp, iv)
			b.Store(iv, addr, isa.RZ, 1, int64(vp.Offset), 8)
			bp := l.Place("back")
			fieldAddr(bp, iv)
			b.Store(isa.RZ, addr, isa.RZ, 1, int64(bp.Offset), 8)
			// forward: chain within the thread's queue segment.
			succ := b.R()
			b.AddI(x, iv, 1)
			b.Rem(x, x, perPartReg)
			b.If(isa.Eq, x, isa.RZ,
				func() { b.MovI(succ, 0) },
				func() {
					b.AddI(succ, iv, 1)
					b.MulI(succ, succ, fwdStride)
					b.Add(succ, succ, pools[fp.Arr])
				},
			)
			fieldAddr(fp, iv)
			b.Store(succ, addr, isa.RZ, 1, int64(fp.Offset), 8)
			b.Release(succ)
		})
		t := b.R()
		b.ForRange(t, 0, threads, 1, func() {
			b.Mul(x, t, perPartReg)
			b.MulI(x, x, fwdStride)
			b.Add(x, x, pools[fp.Arr])
			b.Store(x, headsBase, t, 8, 0, 8)
		})
		b.Ret()
	}

	// worker (Arg0 = thread id): the line-96 queue scan — forward only —
	// repeated reps times, then one treatment pass that updates
	// seconds/time by walking the arena segment directly.
	workerFn := b.Func("sim_village", "health.c")
	{
		headsBase, poolsBase := b.R(), b.R()
		b.GAddr(headsBase, headsG)
		b.GAddr(poolsBase, poolsG)
		rep, p, count := b.R(), b.R(), b.R()
		b.MovI(count, 0)
		b.AtLine(96)
		b.ForRange(rep, 0, reps, 1, func() {
			b.AtLine(96)
			b.Load(p, headsBase, isa.ArgReg0, 8, 0, 8)
			b.WhileNZ(p, func() {
				b.AtLine(96)
				b.AddI(count, count, 1)
				b.Load(p, p, isa.RZ, 1, int64(fp.Offset), 8)
			})
		})

		// check_patients_assess (lines 120-124): update each patient's
		// time from seconds, touching the non-forward part of the arena.
		// Addresses are computed per field so any layout works.
		sp, tp := l.Place("seconds"), l.Place("time")
		base2, idx, start, sv, tv, pool := b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
		b.MovI(start, perPart)
		b.Mul(start, start, isa.ArgReg0)
		at := func(pl prog.Placement) {
			b.Load(pool, poolsBase, isa.RZ, 1, int64(8*pl.Arr), 8)
			b.Add(base2, idx, start)
			b.MulI(base2, base2, int64(l.Structs[pl.Arr].Size))
			b.Add(base2, base2, pool)
		}
		b.AtLine(120)
		b.ForRange(idx, 0, perPart, 1, func() {
			b.AtLine(121)
			at(sp)
			b.Load(sv, base2, isa.RZ, 1, int64(sp.Offset), 4)
			at(tp)
			b.Load(tv, base2, isa.RZ, 1, int64(tp.Offset), 4)
			b.Add(tv, tv, sv)
			b.Store(tv, base2, isa.RZ, 1, int64(tp.Offset), 4)
		})
		b.Ret()
	}

	main := b.Func("main", "health.c")
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, parallelPhases(initFn, workerFn, int(threads)), nil
}
