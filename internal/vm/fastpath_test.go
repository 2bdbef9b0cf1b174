package vm

// Differential tests of the block-compiled engine against the reference
// interpreter: the same program, machine configuration, and observer must
// yield identical register files, memory, statistics, and event streams
// whichever engine runs. Config.Reference selects the engine, so the two
// machines differ in nothing else.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
)

// buildKitchenSink assembles a program that executes every opcode the
// engines implement: the ALU and FP set, loads and stores of every
// size, GAddr, Alloc with and without a registered type, nested calls,
// conditional and unconditional branches, and enough loop iterations to
// cross several scheduler quanta.
func buildKitchenSink() (*prog.Program, int, int) {
	b := prog.NewBuilder("kitchensink")
	st := &prog.StructType{
		Name: "node",
		Fields: []prog.PhysField{
			{Name: "val", Offset: 0, Size: 8},
			{Name: "next", Offset: 8, Size: 8},
		},
		Size: 16, Align: 8,
	}
	tid := b.Type(st)
	arr := b.Global("arr", 512*8, -1)
	out := b.Global("out", 64, -1)

	// helper: computes r_out = arg0*2 + 7 via a mix of ops, then returns.
	helper := b.Func("helper", "k.c")
	h1, h2 := b.R(), b.R()
	b.MovI(h1, 2)
	b.Mul(h1, isa.ArgReg0, h1)
	b.AddI(h1, h1, 7)
	b.MovI(h2, 3)
	b.Div(h2, h1, h2)
	b.Rem(h2, h1, h2)
	b.Store(h2, isa.ArgReg1, isa.RZ, 1, 0, 8)
	b.Ret()

	main := b.Func("main", "k.c")
	base, ob, iv, v, w, f := b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
	b.GAddr(base, arr)
	b.GAddr(ob, out)

	// Strided stores and loads of every access size.
	b.ForRange(iv, 0, 512, 1, func() {
		b.Mul(v, iv, iv)
		b.Store(v, base, iv, 8, 0, 8)
	})
	b.MovI(w, 0)
	for _, size := range []int{1, 2, 4, 8} {
		size := size
		b.ForRange(iv, 0, 256, 1, func() {
			b.Load(v, base, iv, 8, int64(size), size)
			b.Add(w, w, v)
		})
	}
	b.Store(w, ob, isa.RZ, 1, 0, 8)

	// Bit ops, shifts, float pipeline.
	b.MovI(v, 0x0f0f)
	b.And(w, w, v)
	b.Or(w, w, v)
	b.Xor(w, w, v)
	b.MovI(v, 3)
	b.Shl(w, w, v)
	b.Shr(w, w, v)
	b.CvtIF(f, w)
	b.FAdd(f, f, f)
	b.FMul(f, f, f)
	b.FSub(f, f, f)
	b.MovI(v, 4)
	b.CvtIF(v, v)
	b.FDiv(f, f, v)
	b.FSqrt(f, v)
	b.CvtFI(f, f)
	b.Store(f, ob, isa.RZ, 1, 8, 8)

	// Heap allocation (typed and untyped) plus a pointer chase.
	sz, p1, p2 := b.R(), b.R(), b.R()
	b.MovI(sz, 16)
	b.Alloc(p1, sz, tid)
	b.Alloc(p2, sz, -1)
	b.Store(p2, p1, isa.RZ, 1, 8, 8) // p1.next = p2
	b.MovI(v, 41)
	b.Store(v, p2, isa.RZ, 1, 0, 8)
	b.Load(w, p1, isa.RZ, 1, 8, 8) // w = p1.next
	b.Load(v, w, isa.RZ, 1, 0, 8)  // v = *w
	b.Store(v, ob, isa.RZ, 1, 16, 8)

	// Nested call with address argument.
	b.MovI(isa.ArgReg0, 10)
	b.AddI(isa.ArgReg1, ob, 24)
	b.Call(helper)

	// Branches both ways, and a Nop for completeness.
	b.Nop()
	b.If(isa.Lt, v, w, func() {
		b.AddI(v, v, 1)
	}, func() {
		b.AddI(v, v, 2)
	})
	b.If(isa.Ge, v, w, func() {
		b.AddI(v, v, 4)
	}, nil)
	b.Store(v, ob, isa.RZ, 1, 32, 8)
	b.Halt()
	b.SetEntry(main)
	return b.MustProgram(), main, out
}

// machinesBoth builds a fast-engine and a reference-engine machine with
// otherwise identical configuration.
func machinesBoth(t *testing.T, p *prog.Program, ccfg cache.Config, cores int) (fast, ref *Machine) {
	t.Helper()
	var err error
	fast, err = NewMachine(p, ccfg, cores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rcfg := Config{}
	rcfg.Reference = true
	ref, err = NewMachine(p, ccfg, cores, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.code == nil {
		t.Fatal("fast machine did not compile")
	}
	if ref.code != nil {
		t.Fatal("Reference machine compiled anyway")
	}
	return fast, ref
}

func runBothPhases(t *testing.T, fast, ref *Machine, phases [][]ThreadSpec) (fastStats, refStats []Stats) {
	t.Helper()
	for pi, ph := range phases {
		fs, err := fast.Run(ph)
		if err != nil {
			t.Fatalf("fast phase %d: %v", pi, err)
		}
		rs, err := ref.Run(ph)
		if err != nil {
			t.Fatalf("reference phase %d: %v", pi, err)
		}
		fastStats = append(fastStats, fs)
		refStats = append(refStats, rs)
	}
	return fastStats, refStats
}

// TestFastEngineMatchesReference runs the kitchen-sink program on both
// engines and demands identical stats, registers, and memory.
func TestFastEngineMatchesReference(t *testing.T) {
	p, _, out := buildKitchenSink()
	for _, prefetch := range []bool{false, true} {
		ccfg := cache.DefaultConfig()
		ccfg.Prefetch = prefetch
		fast, ref := machinesBoth(t, p, ccfg, 1)
		fs, rs := runBothPhases(t, fast, ref, [][]ThreadSpec{nil})
		if !reflect.DeepEqual(fs, rs) {
			t.Errorf("prefetch=%t: stats differ\nfast: %+v\nref:  %+v", prefetch, fs, rs)
		}
		if fast.Threads[0].Regs != ref.Threads[0].Regs {
			t.Errorf("prefetch=%t: final register files differ", prefetch)
		}
		for off := uint64(0); off < 40; off += 8 {
			fv := fast.Space.ReadInt(fast.GlobalBase(out)+off, 8)
			rv := ref.Space.ReadInt(ref.GlobalBase(out)+off, 8)
			if fv != rv {
				t.Errorf("prefetch=%t: out+%d = %d (fast) vs %d (ref)", prefetch, off, fv, rv)
			}
		}
	}
}

// buildTwoPhase assembles a two-phase workload: one thread fills an
// array, then two threads on two cores each read and rewrite half of it,
// across several quanta and more accesses than one pipeline chunk holds.
func buildTwoPhase() (*prog.Program, [][]ThreadSpec) {
	const n = 2048
	b := prog.NewBuilder("events")
	arr := b.Global("arr", n*8, -1)
	initFn := b.Func("init", "e.c")
	base, iv := b.R(), b.R()
	b.GAddr(base, arr)
	b.ForRange(iv, 0, n, 1, func() {
		b.Store(iv, base, iv, 8, 0, 8)
	})
	b.Halt()
	worker := b.Func("worker", "e.c")
	wb, wi, wv, ws := b.R(), b.R(), b.R(), b.R()
	b.GAddr(wb, arr)
	b.MovI(ws, 0)
	b.ForRangeReg(wi, 0, isa.ArgReg1, 1, func() {
		b.Add(wv, wi, isa.ArgReg0)
		b.Load(wv, wb, wv, 8, 0, 8)
		b.Add(ws, ws, wv)
		b.Store(ws, wb, wi, 8, 0, 8)
	})
	b.Halt()
	b.SetEntry(initFn)
	phases := [][]ThreadSpec{
		{{Fn: initFn}},
		{
			{Fn: worker, Args: []int64{0, n / 2}, Core: 0},
			{Fn: worker, Args: []int64{n / 2, n / 2}, Core: 1},
		},
	}
	return b.MustProgram(), phases
}

// TestFastEngineEventStream runs a multithreaded two-phase workload on
// both engines with recording observers attached and compares the full
// event streams field by field — the strictest possible statement that
// the compiled engine changes no observable event.
func TestFastEngineEventStream(t *testing.T) {
	p, phases := buildTwoPhase()
	ccfg := cache.DefaultConfig()
	fast, ref := machinesBoth(t, p, ccfg, 2)
	fRec, rRec := &observerRecorder{overhead: 9}, &observerRecorder{overhead: 9}
	fast.Observer, ref.Observer = fRec, rRec
	fs, rs := runBothPhases(t, fast, ref, phases)
	if !reflect.DeepEqual(fs, rs) {
		t.Errorf("stats differ\nfast: %+v\nref:  %+v", fs, rs)
	}
	if len(fRec.events) != len(rRec.events) {
		t.Fatalf("event counts differ: fast %d, ref %d", len(fRec.events), len(rRec.events))
	}
	for i := range fRec.events {
		if fRec.events[i] != rRec.events[i] {
			t.Fatalf("event %d differs:\nfast %+v\nref  %+v", i, fRec.events[i], rRec.events[i])
		}
	}
}

// fakeGapSampler is an in-package GapSampler double (the real one lives
// in internal/pebs, which imports this package). It records every
// charged sample with its attribution and — crucially — books skipped
// accesses, so the test can verify the machine's batching squares with
// an every-event count. Like the PEBS-LL latency filter, it drops and
// charges nothing for samples faster than minLat.
type fakeGapSampler struct {
	period   uint64
	byInstrs bool
	cost     uint64
	minLat   uint32
	space    *mem.Space
	counts   []uint64 // PEBS: accesses until next sample; IBS: next tagged instr
	samples  []fakeSample
	skipped  uint64
	// composed counts OnAccess calls; the pipelined engine calls the
	// halves directly.
	composed uint64
	// panicAt makes ChargeSample panic on that many-th sample (1-based).
	panicAt int
	charged int
}

// fakeSample is one charged sample: the completed event and the ID of
// the object SampleAccess attributed it to (-1 if none).
type fakeSample struct {
	ev  MemEvent
	obj int
}

var _ GapSampler = (*fakeGapSampler)(nil)

func newFakeGapSampler(period uint64, byInstrs bool, threads int) *fakeGapSampler {
	s := &fakeGapSampler{period: period, byInstrs: byInstrs, cost: 11}
	s.counts = make([]uint64, threads)
	for i := range s.counts {
		s.counts[i] = period
	}
	return s
}

func (s *fakeGapSampler) OnAccess(ev *MemEvent) uint64 {
	s.composed++
	obj, ok := s.SampleAccess(ev)
	if !ok {
		return 0
	}
	return s.ChargeSample(ev, obj)
}

func (s *fakeGapSampler) SampleAccess(ev *MemEvent) (*mem.Object, bool) {
	if s.byInstrs {
		if ev.Instrs < s.counts[ev.TID] {
			return nil, false
		}
		var tagged uint64
		for s.counts[ev.TID] <= ev.Instrs {
			tagged = s.counts[ev.TID]
			s.counts[ev.TID] += s.period
		}
		if tagged != ev.Instrs {
			return nil, false
		}
	} else {
		s.counts[ev.TID]--
		if s.counts[ev.TID] > 0 {
			return nil, false
		}
		s.counts[ev.TID] = s.period
	}
	if s.space == nil {
		return nil, true
	}
	return s.space.FindObject(ev.EA), true
}

func (s *fakeGapSampler) ChargeSample(ev *MemEvent, obj *mem.Object) uint64 {
	if s.charged++; s.charged == s.panicAt {
		panic("fake sampler: timing half failed")
	}
	if ev.Latency < s.minLat {
		return 0
	}
	id := -1
	if obj != nil {
		id = obj.ID
	}
	s.samples = append(s.samples, fakeSample{ev: *ev, obj: id})
	return s.cost
}

func (s *fakeGapSampler) AccessGap(tid int) (uint64, bool) {
	if s.byInstrs {
		return s.counts[tid], true
	}
	return s.counts[tid] - 1, false
}

func (s *fakeGapSampler) SkipAccesses(tid int, n uint64) {
	s.counts[tid] -= n
	s.skipped += n
}

// TestGapSamplerBatching runs the same workloads with a gap-aware
// sampler on the compiled engine, pipelined (GOMAXPROCS 2), and with an
// every-event count on the reference engine. Stats, per-thread Cycles
// and OverheadCycles included, and the charged samples, their
// timing-side Latency, Level and Cycle included, must be identical; the
// compiled run must have used the no-copy-out path and the split
// sampler halves.
func TestGapSamplerBatching(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	kitchen, _, _ := buildKitchenSink()
	twoPhase, twoPhases := buildTwoPhase()
	for _, tc := range []struct {
		name   string
		p      *prog.Program
		phases [][]ThreadSpec
		cores  int
		period uint64
		minLat uint32
	}{
		{"kitchensink", kitchen, [][]ThreadSpec{nil}, 1, 97, 0},
		{"two-phase", twoPhase, twoPhases, 2, 37, 0},
		// L1 hits (4 cycles) are dropped uncharged, so the overhead
		// account depends on the replayed latencies.
		{"two-phase-latency-threshold", twoPhase, twoPhases, 2, 37, 10},
	} {
		for _, byInstrs := range []bool{false, true} {
			name := fmt.Sprintf("%s/byInstrs=%t", tc.name, byInstrs)
			fast, ref := machinesBoth(t, tc.p, cache.DefaultConfig(), tc.cores)
			threads := 1
			for _, ph := range tc.phases {
				threads = max(threads, len(ph))
			}
			fSamp := newFakeGapSampler(tc.period, byInstrs, threads)
			rSamp := newFakeGapSampler(tc.period, byInstrs, threads)
			fSamp.minLat, rSamp.minLat = tc.minLat, tc.minLat
			fSamp.space, rSamp.space = fast.Space, ref.Space
			fast.Observer, ref.Observer = fSamp, rSamp
			fs, rs := runBothPhases(t, fast, ref, tc.phases)
			if !reflect.DeepEqual(fs, rs) {
				t.Errorf("%s: stats differ\nfast: %+v\nref:  %+v", name, fs, rs)
			}
			if len(fSamp.samples) == 0 {
				t.Fatalf("%s: no samples recorded", name)
			}
			if !reflect.DeepEqual(fSamp.samples, rSamp.samples) {
				t.Errorf("%s: sample streams differ (fast %d, ref %d)",
					name, len(fSamp.samples), len(rSamp.samples))
			}
			if tc.minLat > 0 && fSamp.charged == len(fSamp.samples) {
				t.Errorf("%s: the latency threshold dropped no sample", name)
			}
			if !byInstrs && fSamp.skipped == 0 {
				t.Errorf("%s: fast engine never used the batched skip path", name)
			}
			if fSamp.composed != 0 {
				t.Errorf("%s: fast engine called OnAccess %d times; the pipelined engine calls the halves", name, fSamp.composed)
			}
			if rSamp.skipped != 0 {
				t.Errorf("%s: reference engine must deliver every event, not skip", name)
			}
		}
	}
}

// TestPlainObserverSeesEveryAccess pins the contract that an observer
// which is not a GapSampler — the sharing verifier, the ground-truth
// recorder — still receives every access from the fast engine.
func TestPlainObserverSeesEveryAccess(t *testing.T) {
	p, _, _ := buildKitchenSink()
	fast, ref := machinesBoth(t, p, cache.DefaultConfig(), 1)
	fRec, rRec := &observerRecorder{}, &observerRecorder{}
	fast.Observer, ref.Observer = fRec, rRec
	fs, rs := runBothPhases(t, fast, ref, [][]ThreadSpec{nil})
	if fs[0].MemOps != uint64(len(fRec.events)) {
		t.Errorf("fast engine delivered %d events for %d memops", len(fRec.events), fs[0].MemOps)
	}
	if len(fRec.events) != len(rRec.events) {
		t.Errorf("event counts differ: fast %d, ref %d", len(fRec.events), len(rRec.events))
	}
	_ = rs
}
