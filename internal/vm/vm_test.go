package vm

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
)

func testCacheConfig() cache.Config {
	c := cache.DefaultConfig()
	c.Prefetch = false
	return c
}

func newTestMachine(t *testing.T, p *prog.Program, cores int) *Machine {
	t.Helper()
	m, err := NewMachine(p, testCacheConfig(), cores, Config{})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

// TestLoopSum runs sum(0..99) through a counted loop, storing the result
// to a global, and checks the value landed in simulated memory.
func TestLoopSum(t *testing.T) {
	b := prog.NewBuilder("loopsum")
	g := b.Global("out", 8, -1)
	b.Func("main", "t.c")
	iv, sum, base := b.R(), b.R(), b.R()
	b.MovI(sum, 0)
	b.ForRange(iv, 0, 100, 1, func() {
		b.Add(sum, sum, iv)
	})
	b.GAddr(base, g)
	b.Store(sum, base, isa.RZ, 1, 0, 8)
	b.Halt()
	p := b.MustProgram()

	m := newTestMachine(t, p, 1)
	st, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Space.ReadInt(m.GlobalBase(g), 8); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
	if st.Instrs == 0 || st.AppWallCycles == 0 {
		t.Error("stats empty")
	}
	if st.MemOps != 1 {
		t.Errorf("memops = %d, want 1", st.MemOps)
	}
}

// TestStridedStoreLoad writes i*i into element i of an array of 16-byte
// records and reads them back at the right addresses.
func TestStridedStoreLoad(t *testing.T) {
	const n, stride = 64, 16
	b := prog.NewBuilder("strided")
	g := b.Global("arr", n*stride, -1)
	b.Func("main", "t.c")
	base, iv, v := b.R(), b.R(), b.R()
	b.GAddr(base, g)
	b.ForRange(iv, 0, n, 1, func() {
		b.Mul(v, iv, iv)
		b.Store(v, base, iv, stride, 8, 8) // offset 8 within each record
	})
	b.Halt()
	p := b.MustProgram()

	m := newTestMachine(t, p, 1)
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		addr := m.GlobalBase(g) + uint64(i*stride+8)
		if got := m.Space.ReadInt(addr, 8); got != int64(i*i) {
			t.Fatalf("elem %d = %d, want %d", i, got, i*i)
		}
	}
}

// TestCallRestoresRegisters checks the calling convention: callee clobbers
// are undone on return, and r1 carries the return value.
func TestCallRestoresRegisters(t *testing.T) {
	b := prog.NewBuilder("callconv")
	g := b.Global("out", 16, -1)

	callee := b.Func("callee", "t.c")
	// Clobber a bunch of scratch registers, then return Arg0*2.
	for r := isa.FirstScratchReg; r < isa.FirstScratchReg+20; r++ {
		b.MovI(r, -999)
	}
	b.Add(isa.RetReg, isa.ArgReg0, isa.ArgReg0)
	b.Ret()

	main := b.Func("main", "t.c")
	keep, base := b.R(), b.R()
	b.MovI(keep, 1234)
	b.MovI(isa.ArgReg0, 21)
	b.Call(callee)
	b.GAddr(base, g)
	b.Store(isa.RetReg, base, isa.RZ, 1, 0, 8) // 42
	b.Store(keep, base, isa.RZ, 1, 8, 8)       // 1234 must survive
	b.Halt()
	b.SetEntry(main)
	p := b.MustProgram()

	m := newTestMachine(t, p, 1)
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Space.ReadInt(m.GlobalBase(g), 8); got != 42 {
		t.Errorf("return value = %d, want 42", got)
	}
	if got := m.Space.ReadInt(m.GlobalBase(g)+8, 8); got != 1234 {
		t.Errorf("caller register = %d, want 1234 (clobbered by callee)", got)
	}
}

// TestRetFromRootHalts: a thread returning from its root function stops.
func TestRetFromRootHalts(t *testing.T) {
	b := prog.NewBuilder("root")
	b.Func("main", "t.c")
	b.MovI(b.R(), 7)
	b.Ret()
	p := b.MustProgram()
	m := newTestMachine(t, p, 1)
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !m.Threads[0].Halted {
		t.Error("thread not halted after root return")
	}
}

// TestAllocAndPointerChase builds a linked list via Alloc and walks it,
// verifying stored pointers round-trip through simulated memory.
func TestAllocAndPointerChase(t *testing.T) {
	const n = 50
	b := prog.NewBuilder("chase")
	g := b.Global("head", 8, -1)
	b.Func("main", "t.c")
	// Build list: each node {next*8, val*8}; nodes carry val = i.
	sz, node, prev, iv, headBase := b.R(), b.R(), b.R(), b.R(), b.R()
	b.MovI(sz, 16)
	b.MovI(prev, 0)
	b.ForRange(iv, 0, n, 1, func() {
		b.Alloc(node, sz, -1)
		b.Store(prev, node, isa.RZ, 1, 0, 8) // node.next = prev
		b.Store(iv, node, isa.RZ, 1, 8, 8)   // node.val = i
		b.Mov(prev, node)
	})
	b.GAddr(headBase, g)
	b.Store(prev, headBase, isa.RZ, 1, 0, 8)
	// Walk the list summing vals.
	sum, cur, v := b.R(), b.R(), b.R()
	b.MovI(sum, 0)
	b.Load(cur, headBase, isa.RZ, 1, 0, 8)
	b.WhileNZ(cur, func() {
		b.Load(v, cur, isa.RZ, 1, 8, 8)
		b.Add(sum, sum, v)
		b.Load(cur, cur, isa.RZ, 1, 0, 8)
	})
	out := b.Global("out", 8, -1)
	ob := b.R()
	b.GAddr(ob, out)
	b.Store(sum, ob, isa.RZ, 1, 0, 8)
	b.Halt()
	p := b.MustProgram()

	m := newTestMachine(t, p, 1)
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Space.ReadInt(m.GlobalBase(out), 8); got != n*(n-1)/2 {
		t.Errorf("list sum = %d, want %d", got, n*(n-1)/2)
	}
	// Each Alloc created one heap object.
	heapObjs := 0
	for _, o := range m.Space.Objects() {
		if o.Kind == mem.HeapObj {
			heapObjs++
		}
	}
	if heapObjs != n {
		t.Errorf("heap objects = %d, want %d", heapObjs, n)
	}
}

// TestAllocCallPathIdentity: allocations reached through different call
// sites get different identities; through the same call site, the same.
func TestAllocCallPathIdentity(t *testing.T) {
	b := prog.NewBuilder("idpath")
	allocFn := b.Func("do_alloc", "t.c")
	sz := b.R()
	b.MovI(sz, 32)
	b.Alloc(isa.RetReg, sz, -1)
	b.Ret()

	main := b.Func("main", "t.c")
	b.Call(allocFn) // call site 1
	b.Call(allocFn) // call site 2 (different IP)
	b.Call(allocFn) // call site 3
	b.Halt()
	b.SetEntry(main)
	p := b.MustProgram()

	m := newTestMachine(t, p, 1)
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	objs := m.Space.Objects()
	if len(objs) != 3 {
		t.Fatalf("objects = %d, want 3", len(objs))
	}
	if objs[0].Identity == objs[1].Identity {
		t.Error("different call sites share identity")
	}
}

// TestFloatOps exercises the FP pipeline: hypot(3,4) == 5.
func TestFloatOps(t *testing.T) {
	b := prog.NewBuilder("float")
	g := b.Global("out", 8, -1)
	b.Func("main", "t.c")
	x, y, s, base := b.R(), b.R(), b.R(), b.R()
	b.MovF(x, 3.0)
	b.MovF(y, 4.0)
	b.FMul(x, x, x)
	b.FMul(y, y, y)
	b.FAdd(s, x, y)
	b.FSqrt(s, s)
	b.GAddr(base, g)
	b.Store(s, base, isa.RZ, 1, 0, 8)
	b.Halt()
	p := b.MustProgram()
	m := newTestMachine(t, p, 1)
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	bits := uint64(m.Space.ReadInt(m.GlobalBase(g), 8))
	if got := math.Float64frombits(bits); got != 5.0 {
		t.Errorf("hypot = %v, want 5", got)
	}
}

// TestIfElse checks both arms of the If builder produce correct control
// flow under the interpreter.
func TestIfElse(t *testing.T) {
	build := func(v int64) *prog.Program {
		b := prog.NewBuilder("ifelse")
		g := b.Global("out", 8, -1)
		b.Func("main", "t.c")
		r, out, base := b.R(), b.R(), b.R()
		b.MovI(r, v)
		b.If(isa.Gt, r, isa.RZ,
			func() { b.MovI(out, 1) },
			func() { b.MovI(out, 2) },
		)
		b.GAddr(base, g)
		b.Store(out, base, isa.RZ, 1, 0, 8)
		b.Halt()
		return b.MustProgram()
	}
	for _, tc := range []struct {
		v    int64
		want int64
	}{{5, 1}, {-5, 2}, {0, 2}} {
		m := newTestMachine(t, build(tc.v), 1)
		if _, err := m.Run(nil); err != nil {
			t.Fatal(err)
		}
		if got := m.Space.ReadInt(m.GlobalBase(0), 8); got != tc.want {
			t.Errorf("if(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestMultiThreadDeterminism runs two threads that sum disjoint halves of
// an array; the scheduler must interleave them and results must be exact.
func TestMultiThreadDeterminism(t *testing.T) {
	const n = 1000
	b := prog.NewBuilder("par")
	arr := b.Global("arr", n*8, -1)
	out := b.Global("out", 16, -1)

	initFn := b.Func("init", "t.c")
	base, iv := b.R(), b.R()
	b.GAddr(base, arr)
	b.ForRange(iv, 0, n, 1, func() {
		b.Store(iv, base, iv, 8, 0, 8)
	})
	b.Halt()

	worker := b.Func("worker", "t.c")
	// Args: r1 = start, r2 = stop, r3 = output slot.
	wbase, wiv, wv, wsum, wout := b.R(), b.R(), b.R(), b.R(), b.R()
	b.GAddr(wbase, arr)
	b.MovI(wsum, 0)
	b.ForRangeReg(wiv, 0, isa.ArgReg1, 1, func() {
		b.Add(wv, wiv, isa.ArgReg0) // not used as address: index = start+i
		b.Load(wv, wbase, wv, 8, 0, 8)
		b.Add(wsum, wsum, wv)
	})
	b.GAddr(wout, out)
	b.Store(wsum, wout, isa.ArgReg2, 8, 0, 8)
	b.Halt()
	b.SetEntry(initFn)
	p := b.MustProgram()

	// First run init on one thread.
	m := newTestMachine(t, p, 2)
	if _, err := m.Run([]ThreadSpec{{Fn: initFn}}); err != nil {
		t.Fatal(err)
	}
	// Then two workers in parallel. Each sums half; ForRangeReg counts
	// iterations, with ArgReg0 as the base offset.
	_, err := m.Run([]ThreadSpec{
		{Fn: worker, Args: []int64{0, n / 2, 0}, Core: 0},
		{Fn: worker, Args: []int64{n / 2, n / 2, 1}, Core: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	lo := m.Space.ReadInt(m.GlobalBase(out), 8)
	hi := m.Space.ReadInt(m.GlobalBase(out)+8, 8)
	if lo+hi != n*(n-1)/2 {
		t.Errorf("parallel sum = %d, want %d", lo+hi, n*(n-1)/2)
	}
	if lo == 0 || hi == 0 {
		t.Error("one worker did nothing")
	}
}

// observerRecorder captures events and charges fixed overhead.
type observerRecorder struct {
	events   []MemEvent
	overhead uint64
}

func (o *observerRecorder) OnAccess(ev *MemEvent) uint64 {
	o.events = append(o.events, *ev)
	return o.overhead
}

// TestObserverEvents checks every field the profiler depends on: IP
// resolves to a Load, EA falls in the right object, latency and level are
// consistent, and cycles are monotonic per thread.
func TestObserverEvents(t *testing.T) {
	const n = 32
	b := prog.NewBuilder("obs")
	arr := b.Global("arr", n*16, -1)
	b.Func("main", "t.c")
	base, iv, v := b.R(), b.R(), b.R()
	b.GAddr(base, arr)
	b.ForRange(iv, 0, n, 1, func() {
		b.Load(v, base, iv, 16, 0, 8)
	})
	b.Halt()
	p := b.MustProgram()

	m := newTestMachine(t, p, 1)
	rec := &observerRecorder{overhead: 100}
	m.Observer = rec
	st, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != n {
		t.Fatalf("events = %d, want %d", len(rec.events), n)
	}
	var lastCycle uint64
	for i, ev := range rec.events {
		in := p.InstrAt(ev.IP)
		if in == nil || in.Op != isa.Load {
			t.Fatalf("event %d: IP %#x does not resolve to a load", i, ev.IP)
		}
		if ev.EA != m.GlobalBase(arr)+uint64(i*16) {
			t.Fatalf("event %d: EA %#x, want %#x", i, ev.EA, m.GlobalBase(arr)+uint64(i*16))
		}
		if ev.Latency == 0 || ev.Level == 0 {
			t.Fatalf("event %d: empty latency/level", i)
		}
		if ev.Cycle <= lastCycle {
			t.Fatalf("event %d: cycle %d not monotonic", i, ev.Cycle)
		}
		lastCycle = ev.Cycle
		if ev.Write {
			t.Fatalf("event %d: spurious write flag", i)
		}
	}
	// Overhead accounting: n events × 100 cycles.
	if st.WallCycles-st.AppWallCycles != n*100 {
		t.Errorf("overhead cycles = %d, want %d", st.WallCycles-st.AppWallCycles, n*100)
	}
	if st.OverheadPct() <= 0 {
		t.Error("overhead percentage not positive")
	}
}

// runSelections runs specs on a fresh machine for each side of the
// engine selection — inline (GOMAXPROCS 1) and pipelined (GOMAXPROCS 2) —
// with a gap sampler attached, and returns each Run's error. After each
// Run the goroutine count must be back where it was: every exit joins the
// timing side.
func runSelections(t *testing.T, p *prog.Program, cfg Config, specs []ThreadSpec) (inline, pipelined error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		m, err := NewMachine(p, testCacheConfig(), 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Observer = newFakeGapSampler(7, false, max(1, len(specs)))
		before := runtime.NumGoroutine()
		_, err = m.Run(specs)
		if !goroutinesBackTo(before) {
			t.Errorf("GOMAXPROCS %d: %d goroutines after a failed Run, %d before", procs, runtime.NumGoroutine(), before)
		}
		if procs == 1 {
			inline = err
		} else {
			pipelined = err
		}
	}
	return inline, pipelined
}

// goroutinesBackTo reports whether the goroutine count falls back to n.
// A joined goroutine may still be returning from its last statement when
// Run does, so the check allows it a bounded moment to exit.
func goroutinesBackTo(n int) bool {
	for deadline := time.Now().Add(time.Second); ; {
		if runtime.NumGoroutine() <= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
}

// sameError requires both engines to fail with the same text.
func sameError(t *testing.T, what string, inline, pipelined error) {
	t.Helper()
	if inline == nil || pipelined == nil {
		t.Errorf("%s: accepted (inline %v, pipelined %v)", what, inline, pipelined)
		return
	}
	if inline.Error() != pipelined.Error() {
		t.Errorf("%s: pipelined error %q, inline %q", what, pipelined, inline)
	}
}

// TestMaxInstrsGuard aborts an infinite loop, on either side of the
// engine selection.
func TestMaxInstrsGuard(t *testing.T) {
	b := prog.NewBuilder("inf")
	g := b.Global("g", 8, -1)
	b.Func("main", "t.c")
	base, v := b.R(), b.R()
	b.GAddr(base, g)
	b.Load(v, base, isa.RZ, 1, 0, 8)
	b.Jmp(0) // while(true){ load }
	p := b.MustProgram()
	cfg := Config{}
	cfg.MaxInstrs = 10_000
	m, err := NewMachine(p, testCacheConfig(), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("runaway program not caught: %v", err)
	}
	inline, pipelined := runSelections(t, p, cfg, nil)
	sameError(t, "runaway program", inline, pipelined)
}

// TestRunErrors validates thread-spec checking and the failures of a
// running program — a bad opcode and a panicking sampler — on either
// side of the engine selection.
func TestRunErrors(t *testing.T) {
	b := prog.NewBuilder("e")
	b.Func("main", "t.c")
	b.Halt()
	p := b.MustProgram()
	m := newTestMachine(t, p, 1)
	for _, tc := range []struct {
		what  string
		specs []ThreadSpec
	}{
		{"bad function", []ThreadSpec{{Fn: 99}}},
		{"bad core", []ThreadSpec{{Fn: 0, Core: 5}}},
		{"too many args", []ThreadSpec{{Fn: 0, Args: make([]int64, 9)}}},
	} {
		if _, err := m.Run(tc.specs); err == nil {
			t.Errorf("%s accepted", tc.what)
		}
		inline, pipelined := runSelections(t, p, Config{}, tc.specs)
		sameError(t, tc.what, inline, pipelined)
	}

	// A program that fills more than one pipeline chunk before it reaches
	// an opcode no engine implements.
	bad := buildStoreLoop()
	for _, blk := range bad.Funcs[0].Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == isa.Nop {
				blk.Instrs[i].Op = isa.Op(63)
			}
		}
	}
	inline, pipelined := runSelections(t, bad, Config{}, nil)
	sameError(t, "bad opcode", inline, pipelined)
	if pipelined != nil && !strings.Contains(pipelined.Error(), "unimplemented opcode") {
		t.Errorf("bad opcode: %v", pipelined)
	}

	// A sampler whose timing half panics: the panic surfaces from Run on
	// the caller's goroutine, where it can be recovered, on either side.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		m, err := NewMachine(buildStoreLoop(), testCacheConfig(), 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		s := newFakeGapSampler(7, false, 1)
		s.panicAt = 3
		m.Observer = s
		before := runtime.NumGoroutine()
		got := func() (r any) {
			defer func() { r = recover() }()
			m.Run(nil)
			return nil
		}()
		if got != "fake sampler: timing half failed" {
			t.Errorf("GOMAXPROCS %d: recovered %v, want the sampler's panic", procs, got)
		}
		if !goroutinesBackTo(before) {
			t.Errorf("GOMAXPROCS %d: %d goroutines after a panicking Run, %d before", procs, runtime.NumGoroutine(), before)
		}
	}
}

// buildStoreLoop assembles a program that stores to more records than one
// pipeline chunk holds, then runs a Nop and halts.
func buildStoreLoop() *prog.Program {
	b := prog.NewBuilder("stores")
	arr := b.Global("arr", 4096*8, -1)
	b.Func("main", "t.c")
	base, iv := b.R(), b.R()
	b.GAddr(base, arr)
	b.ForRange(iv, 0, 4096, 1, func() {
		b.Store(iv, base, iv, 8, 0, 8)
	})
	b.Nop()
	b.Halt()
	return b.MustProgram()
}

// TestIntegerOps covers the ALU opcodes end to end.
func TestIntegerOps(t *testing.T) {
	b := prog.NewBuilder("alu")
	g := b.Global("out", 96, -1)
	b.Func("main", "t.c")
	a, c, r, base := b.R(), b.R(), b.R(), b.R()
	b.GAddr(base, g)
	b.MovI(a, 100)
	b.MovI(c, 7)
	slot := int64(0)
	emit := func(f func()) {
		f()
		b.Store(r, base, isa.RZ, 1, slot, 8)
		slot += 8
	}
	emit(func() { b.Sub(r, a, c) })      // 93
	emit(func() { b.Div(r, a, c) })      // 14
	emit(func() { b.Rem(r, a, c) })      // 2
	emit(func() { b.And(r, a, c) })      // 4
	emit(func() { b.Or(r, a, c) })       // 103
	emit(func() { b.Xor(r, a, c) })      // 99
	emit(func() { b.Shl(r, c, c) })      // 7<<7 = 896
	emit(func() { b.Shr(r, a, c) })      // 100>>7 = 0
	emit(func() { b.Div(r, a, isa.RZ) }) // div by zero → 0
	emit(func() { b.Rem(r, a, isa.RZ) }) // rem by zero → 0
	b.Halt()
	p := b.MustProgram()
	m := newTestMachine(t, p, 1)
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	want := []int64{93, 14, 2, 4, 103, 99, 896, 0, 0, 0}
	for i, w := range want {
		if got := m.Space.ReadInt(m.GlobalBase(g)+uint64(i*8), 8); got != w {
			t.Errorf("op %d = %d, want %d", i, got, w)
		}
	}
}

// TestCvt covers int↔float conversion.
func TestCvt(t *testing.T) {
	b := prog.NewBuilder("cvt")
	g := b.Global("out", 16, -1)
	b.Func("main", "t.c")
	r, base := b.R(), b.R()
	b.GAddr(base, g)
	b.MovI(r, 9)
	b.CvtIF(r, r)
	b.FSqrt(r, r)
	b.CvtFI(r, r)
	b.Store(r, base, isa.RZ, 1, 0, 8)
	b.Halt()
	p := b.MustProgram()
	m := newTestMachine(t, p, 1)
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Space.ReadInt(m.GlobalBase(g), 8); got != 3 {
		t.Errorf("cvtfi(sqrt(cvtif(9))) = %d, want 3", got)
	}
}

// TestWallCyclesIsMax checks wall-clock aggregation over unequal threads.
func TestWallCyclesIsMax(t *testing.T) {
	b := prog.NewBuilder("wall")
	b.Func("short", "t.c")
	b.MovI(b.R(), 1)
	b.Halt()
	long := b.Func("long", "t.c")
	iv := b.R()
	b.ForRange(iv, 0, 10000, 1, func() { b.AddI(iv, iv, 0) })
	b.Halt()
	p := b.MustProgram()
	m := newTestMachine(t, p, 2)
	st, err := m.Run([]ThreadSpec{{Fn: 0, Core: 0}, {Fn: long, Core: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.WallCycles != st.PerThread[1].Cycles {
		t.Errorf("wall = %d, want long thread's %d", st.WallCycles, st.PerThread[1].Cycles)
	}
}

// TestRunAllSumsPhases: RunAll's statistics are the sum of the per-phase
// Runs of the same phases on a twin machine — per-thread accounts, wall
// and app cycles, instructions, accesses and the statistical counters —
// with the cache counters taken after the last phase.
func TestRunAllSumsPhases(t *testing.T) {
	p, phases := buildTwoPhase()
	cfg := Config{StatWindow: 8}
	newMachine := func() *Machine {
		m, err := NewMachine(p, testCacheConfig(), 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Observer = newFakeGapSampler(37, false, 2)
		return m
	}
	got, err := newMachine().RunAll(phases)
	if err != nil {
		t.Fatal(err)
	}

	twin := newMachine()
	var want Stats
	for _, ph := range phases {
		st, err := twin.Run(ph)
		if err != nil {
			t.Fatal(err)
		}
		want.Instrs += st.Instrs
		want.MemOps += st.MemOps
		want.WallCycles += st.WallCycles
		want.AppWallCycles += st.AppWallCycles
		want.Cache = st.Cache
		want.Stat.Windows += st.Stat.Windows
		want.Stat.Skipped += st.Stat.Skipped
		want.Stat.Simulated += st.Stat.Simulated
		want.Stat.EstimatedCycles += st.Stat.EstimatedCycles
		for i, ts := range st.PerThread {
			if i == len(want.PerThread) {
				want.PerThread = append(want.PerThread, ThreadStats{ID: ts.ID})
			}
			want.PerThread[i].Cycles += ts.Cycles
			want.PerThread[i].OverheadCycles += ts.OverheadCycles
			want.PerThread[i].Instrs += ts.Instrs
			want.PerThread[i].MemOps += ts.MemOps
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunAll = %+v\nwant the phase sum %+v", got, want)
	}
	if want.Stat.Windows == 0 || len(want.PerThread) != 2 {
		t.Errorf("the phases exercised too little: %+v", want)
	}
}

// TestFastForwardBudgetSplit pins the statistical engine's split of an
// inter-sample gap: the fast-forward prefix plus the warmup window
// reconstructs the gap, and a gap no wider than the window yields no
// fast-forward at all.
func TestFastForwardBudgetSplit(t *testing.T) {
	for _, tc := range []struct{ gap, window, want uint64 }{
		{99, 64, 35},
		{64, 64, 0},
		{64, 1000, 0},
	} {
		if got := fastForward(tc.gap, tc.window); got != tc.want {
			t.Errorf("fastForward(%d, %d) = %d, want %d", tc.gap, tc.window, got, tc.want)
		}
	}
}
