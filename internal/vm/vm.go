// Package vm interprets synthetic programs, producing the memory-access
// stream that the profiler observes.
//
// The machine executes one or more threads round-robin in fixed
// instruction quanta, each thread pinned to a simulated core of the cache
// hierarchy. It keeps per-thread cycle accounts: application cycles (what
// the program costs by itself) and overhead cycles (what an attached
// observer — the PEBS-style sampler — charges per event). Because
// execution is deterministic, one profiled run yields both the
// "original execution time" and the "with profiler" time the paper
// reports: the wall clock is the max over threads of app cycles, with and
// without the overhead account.
//
// # How the functional/timing split preserves determinism
//
// Config.Reference interprets isa.Instr values block by block and is the
// test oracle. Otherwise the machine runs code block-compiled at
// NewMachine time (compile.go) and, when the observer is a GapSampler,
// skips materializing MemEvents for accesses the sampler has promised to
// ignore; a skipped event changes no sampler-visible state (the skip
// count is reported in bulk before the next delivered event).
//
// No simulated latency ever feeds back into functional execution:
// threads rotate on instruction quanta, and samplers select accesses by
// counting accesses or instructions, never cycles. So the compiled engine
// may run cache timing on its own goroutine (pipeline.go). The functional
// side executes every instruction, selects and attributes samples
// (GapSampler.SampleAccess), and counts op-cost cycles; it queues each
// access in retirement order. The timing goroutine replays the queue
// through the same hierarchy in the same order, adds each latency to its
// thread's clock, and stamps and charges each sample
// (GapSampler.ChargeSample) with the clock the inline engine would have
// read: op-cost cycles at the access, plus every latency through it, plus
// the overhead charged before it. Run joins the timing side on every exit
// before it reads a statistic, and re-raises a timing-side panic on the
// caller's goroutine. Machine.pipelines is the one selection point:
// the timing runs inline under Config.Reference, in statistical mode,
// with any observer other than a GapSampler (access or coherence
// observers read machine state as it happens), and when GOMAXPROCS is 1.
//
// Either way every engine retires the same instructions in the same
// order with the same costs against the same memory and cache state, so
// profiles, statistics, and observer event streams are bit-identical —
// the engines change how fast the simulation runs, never what it
// computes. The differential tests in fastpath_test.go enforce this.
package vm

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
)

// MemEvent describes one executed data memory access. It carries exactly
// the fields PEBS-LL exposes per sample — IP, effective address, latency,
// and the serving data source — plus the thread and its local time.
type MemEvent struct {
	TID     int
	IP      uint64
	EA      uint64
	Size    uint8
	Write   bool
	Latency uint32
	Level   uint8 // 1=L1 .. n; n+1 = memory
	Cycle   uint64
	// Instrs is thread slot TID's retired-instruction count at this
	// access, counted across the machine's Runs the way a sampler's
	// per-slot state carries across phases; instruction-based samplers
	// (AMD IBS) period off it instead of off the memory-access count.
	Instrs uint64
	// Ctx is a hash of the thread's calling context (the stack of
	// call-site IPs). StructSlim's stream assumption — one instruction
	// accesses one field — holds per calling context (Section 4.2), so
	// streams are keyed by (IP, Ctx, data structure).
	Ctx uint64
}

// AccessObserver is notified of every data memory access. The returned
// value is extra cycles to charge the thread's overhead account (e.g. the
// cost of a sampling interrupt when the observer decides to take a
// sample). Observers must be cheap: they run inline in the interpreter.
// The event is only valid for the duration of the call — the machine
// reuses one event across accesses so the hot path does not allocate;
// observers that keep data must copy it out.
type AccessObserver interface {
	OnAccess(ev *MemEvent) (overheadCycles uint64)
}

// ThreadSpec launches one thread: the function to run, up to six integer
// arguments placed in r1..r6, and the core the thread is pinned to.
type ThreadSpec struct {
	Fn   int
	Args []int64
	Core int
}

// Config tunes the interpreter. The zero value is the default machine.
type Config struct {
	// MaxInstrs aborts runaway programs (0 means a very large default).
	MaxInstrs uint64
	// Reference forces the original per-instruction interpreter with
	// per-access observer delivery instead of the block-compiled engine.
	// Results are identical either way (see the package comment);
	// differential tests and baseline benchmarks use it.
	Reference bool

	// StatWindow > 0 enables sampled-window statistical simulation on the
	// compiled engine when the observer is a GapSampler that counts
	// accesses: of each inter-sample gap (the AccessGap budget re-armed
	// after a delivered sample), only the trailing StatWindow accesses
	// (the warmup suffix) and the sample itself run the full cache model;
	// the leading accesses execute their exact memory semantics but
	// charge the thread's running-mean latency instead of walking the
	// hierarchy. Control flow, memory contents, and the set of sampled
	// accesses are exact; sample latencies, levels, and timestamps are
	// approximate (see StatCounters). Instruction-gated (IBS) sampling,
	// runs without a GapSampler, and the reference engine ignore the
	// setting and stay exact. It is the one switch for statistical mode:
	// 0 runs exactly.
	StatWindow int
}

// quantum is how many instructions a thread runs before the scheduler
// rotates; it sets the interleaving granularity of parallel runs.
const quantum = 1000

// DefaultStatWindow is the statistical warmup window callers use when they
// want statistical mode without tuning it: enough accesses to repopulate
// the hot working set's cache lines ahead of each sample without giving
// back the speedup (see EXPERIMENTS.md for the measured window sweep).
const DefaultStatWindow = 64

const defaultMaxInstrs = uint64(1) << 40

// Instruction base costs in cycles, excluding memory latency; a simple
// in-order timing model.
var opCost = func() [64]uint64 {
	var c [64]uint64
	for i := range c {
		c[i] = 1
	}
	c[isa.Mul] = 3
	c[isa.MulI] = 3
	c[isa.Div] = 20
	c[isa.Rem] = 20
	c[isa.FAdd] = 3
	c[isa.FSub] = 3
	c[isa.FMul] = 4
	c[isa.FDiv] = 20
	c[isa.FSqrt] = 20
	c[isa.Call] = 5
	c[isa.Ret] = 5
	c[isa.Alloc] = 30
	return c
}()

// frame is a saved caller state for Call/Ret. The convention saves the
// whole register file; r1 carries the return value through the restore.
type frame struct {
	fn, blk, idx int
	pc           int // flat resume index (compiled engine)
	regs         [isa.NumRegs]int64
	callIP       uint64
}

// Thread is one executing thread.
type Thread struct {
	ID   int
	Core int

	Regs [isa.NumRegs]int64

	fn, blk, idx int
	pc           int // flat uop index (compiled engine)
	frames       []frame
	callPath     []uint64 // call-site IPs, outermost first
	ctxStack     []uint64 // incremental hash of callPath per depth
	Halted       bool

	// instrBase is the instructions earlier Runs retired in this thread's
	// slot; MemEvent.Instrs adds it to Instrs.
	instrBase uint64

	// Batched-sampling state (compiled engine with a GapSampler):
	// sampSkip accesses remain undeliverable, pendSkip of them have not
	// been reported yet, and instrGate is the IBS-style retired-
	// instruction threshold (in this Run's Instrs) below which accesses
	// are not delivered.
	sampSkip  uint64
	pendSkip  uint64
	instrGate uint64

	// Statistical-mode state (compiled engine with Config.StatWindow > 0
	// and an access-counting GapSampler): ffSkip accesses remain to
	// fast-forward without walking the cache hierarchy, each charged
	// estLat cycles — the running mean simLatSum/simAccesses over the
	// accesses this thread simulated exactly.
	// statWindows/statSkipped/statSkipCycles feed the run's StatCounters.
	ffSkip         uint64
	estLat         uint64
	simLatSum      uint64
	simAccesses    uint64
	statWindows    uint64
	statSkipped    uint64
	statSkipCycles uint64

	Cycles         uint64 // application cycles
	OverheadCycles uint64 // observer-charged cycles
	Instrs         uint64
	MemOps         uint64

	// evScratch is the MemEvent handed to the observer for this thread's
	// accesses. Reusing one thread-owned event keeps the per-access path
	// allocation-free (a stack-local event would escape through the
	// interface call).
	evScratch MemEvent
}

// Now returns the thread's local time including charged overhead; sample
// timestamps use it so profiles order events the way a perturbed real run
// would.
func (t *Thread) Now() uint64 { return t.Cycles + t.OverheadCycles }

// arm sets the thread's skip budget from a GapSampler's AccessGap answer.
func (t *Thread) arm(gap uint64, byInstrs bool) {
	switch {
	case !byInstrs:
		t.sampSkip = gap
	case gap > t.instrBase:
		t.instrGate = gap - t.instrBase
	default:
		t.instrGate = 0
	}
}

// Machine executes a program against an address space and cache
// hierarchy.
type Machine struct {
	Prog   *prog.Program
	Space  *mem.Space
	Caches *cache.Hierarchy

	Observer AccessObserver

	Threads []*Thread

	globalBase []uint64
	cfg        Config

	// code is the block-compiled program (nil under Config.Reference)
	// and memOps the table of its loads and stores; gap/gapByInstr cache
	// the observer's GapSampler view for one Run, stat says whether the
	// Run is in statistical mode, and pipe is the Run's timing side when
	// it pipelines.
	code       [][]cop
	memOps     []memOp
	gap        GapSampler
	gapByInstr bool
	stat       bool
	pipe       *pipeline

	// slotInstrs is the instructions retired in each thread slot by
	// earlier Runs.
	slotInstrs []uint64
}

// NewMachine loads the program: it finalizes it if needed, places static
// data in a fresh address space, and attaches a cache hierarchy sized for
// numCores cores.
func NewMachine(p *prog.Program, cacheCfg cache.Config, numCores int, cfg Config) (*Machine, error) {
	if !p.Finalized() {
		if err := p.Finalize(); err != nil {
			return nil, err
		}
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = defaultMaxInstrs
	}
	h, err := cache.NewHierarchy(cacheCfg, numCores)
	if err != nil {
		return nil, err
	}
	m := &Machine{Prog: p, Space: mem.NewSpace(), Caches: h, cfg: cfg}
	for gi, g := range p.Globals {
		o := m.Space.AllocStatic(g.Name, uint64(g.Size), g.TypeID, gi)
		m.globalBase = append(m.globalBase, o.Base)
	}
	if !cfg.Reference {
		m.code, m.memOps = compileProgram(p, m.globalBase)
	}
	return m, nil
}

// GlobalBase returns the loaded address of global gi.
func (m *Machine) GlobalBase(gi int) uint64 { return m.globalBase[gi] }

// SetCoherenceObserver attaches a coherence observer to the machine's
// cache hierarchy, alongside the access observer.
func (m *Machine) SetCoherenceObserver(o cache.CoherenceObserver) {
	m.Caches.SetCoherenceObserver(o)
}

// CoresFor returns the number of cores a machine needs to run the
// phases: the largest ThreadSpec.Core plus one, and at least one.
func CoresFor(phases [][]ThreadSpec) int {
	cores := 1
	for _, ph := range phases {
		for _, ts := range ph {
			cores = max(cores, ts.Core+1)
		}
	}
	return cores
}

// RunAll executes a sequence of phases back to back on the same machine
// (same address space and caches) and returns their statistics summed:
// instruction, access, cycle and statistical counts add up across
// phases, PerThread sums each thread slot's accounts, and Cache is the
// machine's cumulative counters after the last phase. A nil or empty
// phase list runs the program entry function once.
func (m *Machine) RunAll(phases [][]ThreadSpec) (Stats, error) {
	if len(phases) == 0 {
		phases = [][]ThreadSpec{{{Fn: m.Prog.EntryFn}}}
	}
	var total Stats
	for _, ph := range phases {
		st, err := m.Run(ph)
		if err != nil {
			return Stats{}, err
		}
		total.Instrs += st.Instrs
		total.MemOps += st.MemOps
		total.WallCycles += st.WallCycles
		total.AppWallCycles += st.AppWallCycles
		total.Cache = st.Cache
		total.Stat.Windows += st.Stat.Windows
		total.Stat.Skipped += st.Stat.Skipped
		total.Stat.Simulated += st.Stat.Simulated
		total.Stat.EstimatedCycles += st.Stat.EstimatedCycles
		for i, ts := range st.PerThread {
			if i == len(total.PerThread) {
				total.PerThread = append(total.PerThread, ThreadStats{ID: ts.ID})
			}
			agg := &total.PerThread[i]
			agg.Cycles += ts.Cycles
			agg.OverheadCycles += ts.OverheadCycles
			agg.Instrs += ts.Instrs
			agg.MemOps += ts.MemOps
		}
	}
	return total, nil
}

// Run executes the given threads to completion and returns run statistics.
func (m *Machine) Run(specs []ThreadSpec) (Stats, error) {
	if len(specs) == 0 {
		specs = []ThreadSpec{{Fn: m.Prog.EntryFn}}
	}
	m.Threads = m.Threads[:0]
	for i, sp := range specs {
		if sp.Fn < 0 || sp.Fn >= len(m.Prog.Funcs) {
			return Stats{}, fmt.Errorf("thread %d: function %d out of range", i, sp.Fn)
		}
		if sp.Core < 0 || sp.Core >= m.Caches.NumCores() {
			return Stats{}, fmt.Errorf("thread %d: core %d out of range", i, sp.Core)
		}
		if len(sp.Args) > 6 {
			return Stats{}, fmt.Errorf("thread %d: too many arguments", i)
		}
		t := &Thread{ID: i, Core: sp.Core, fn: sp.Fn}
		if i < len(m.slotInstrs) {
			t.instrBase = m.slotInstrs[i]
		}
		for ai, v := range sp.Args {
			t.Regs[isa.ArgReg0+isa.Reg(ai)] = v
		}
		m.Threads = append(m.Threads, t)
	}

	// A GapSampler observer lets the compiled engine batch non-sample
	// accesses; arm each thread's initial skip budget. The reference
	// engine always delivers every access. Statistical mode needs an
	// access budget to split, so it takes an access-counting sampler.
	m.gap = nil
	m.stat = false
	if m.code != nil && m.Observer != nil {
		if g, ok := m.Observer.(GapSampler); ok {
			m.gap = g
			for _, t := range m.Threads {
				gap, byInstr := g.AccessGap(t.ID)
				m.gapByInstr = byInstr
				t.arm(gap, byInstr)
			}
			if m.cfg.StatWindow > 0 && !m.gapByInstr {
				m.stat = true
				// Statistical runs age lines across fast-forwards so the
				// skipped accesses' evictions are modeled rather than
				// leaving stale lines to serve artificial hits.
				m.Caches.EnableDecay()
			}
		}
	}

	if m.pipelines() {
		m.pipe = startPipeline(m.Caches, m.gap, m.memOps, m.Threads)
		// Every exit, an error or a panic included, drains and joins the
		// timing side first.
		defer m.endPipeline()
	}

	var executed uint64
	for {
		alive := false
		for _, t := range m.Threads {
			if t.Halted {
				continue
			}
			alive = true
			var n uint64
			var err error
			if m.code != nil {
				n, err = m.stepThreadFast(t, quantum)
			} else {
				n, err = m.stepThread(t, quantum)
			}
			if err != nil {
				return Stats{}, fmt.Errorf("thread %d: %w", t.ID, err)
			}
			executed += n
		}
		if !alive {
			break
		}
		if executed > m.cfg.MaxInstrs {
			return Stats{}, fmt.Errorf("instruction budget exceeded (%d); runaway program?", m.cfg.MaxInstrs)
		}
	}
	m.endPipeline()
	for i, t := range m.Threads {
		if i == len(m.slotInstrs) {
			m.slotInstrs = append(m.slotInstrs, 0)
		}
		m.slotInstrs[i] += t.Instrs
	}
	return m.stats(), nil
}

// endPipeline joins the Run's timing side, if any, and adds its clocks to
// the threads' accounts. It re-raises a timing-side panic.
func (m *Machine) endPipeline() {
	p := m.pipe
	if p == nil {
		return
	}
	m.pipe = nil
	p.join()
	for i, t := range m.Threads {
		t.Cycles += p.accts[i].lat
		t.OverheadCycles += p.accts[i].over
	}
	fault := p.fault
	p.release()
	if fault != nil {
		panic(fault)
	}
}

// stepThread runs up to quantum instructions of one thread. The machine's
// hot fields (address space, hierarchy, observer) are hoisted into locals
// so the dispatch loop reads them without pointer-chasing through m, and
// the instruction slice of the current block is kept in a local to keep
// the bounds check and indexing flat.
func (m *Machine) stepThread(t *Thread, quantum int) (uint64, error) {
	p := m.Prog
	space := m.Space
	caches := m.Caches
	obs := m.Observer
	f := p.Funcs[t.fn]
	blk := f.Blocks[t.blk]
	instrs := blk.Instrs
	regs := &t.Regs
	var done uint64

	for int(done) < quantum {
		if t.idx >= len(instrs) {
			// Fallthrough to the next block (Finalize guarantees the last
			// block of a function ends in a terminator).
			t.blk++
			t.idx = 0
			blk = f.Blocks[t.blk]
			instrs = blk.Instrs
			continue
		}
		in := &instrs[t.idx]
		t.idx++
		done++
		t.Instrs++
		t.Cycles += opCost[in.Op]

		switch in.Op {
		case isa.Nop:
		case isa.MovI:
			regs[in.Rd] = in.Imm
		case isa.Mov:
			regs[in.Rd] = regs[in.Rs1]
		case isa.Add:
			regs[in.Rd] = regs[in.Rs1] + regs[in.Rs2]
		case isa.AddI:
			regs[in.Rd] = regs[in.Rs1] + in.Imm
		case isa.Sub:
			regs[in.Rd] = regs[in.Rs1] - regs[in.Rs2]
		case isa.Mul:
			regs[in.Rd] = regs[in.Rs1] * regs[in.Rs2]
		case isa.MulI:
			regs[in.Rd] = regs[in.Rs1] * in.Imm
		case isa.Div:
			if d := regs[in.Rs2]; d != 0 {
				regs[in.Rd] = regs[in.Rs1] / d
			} else {
				regs[in.Rd] = 0
			}
		case isa.Rem:
			if d := regs[in.Rs2]; d != 0 {
				regs[in.Rd] = regs[in.Rs1] % d
			} else {
				regs[in.Rd] = 0
			}
		case isa.And:
			regs[in.Rd] = regs[in.Rs1] & regs[in.Rs2]
		case isa.Or:
			regs[in.Rd] = regs[in.Rs1] | regs[in.Rs2]
		case isa.Xor:
			regs[in.Rd] = regs[in.Rs1] ^ regs[in.Rs2]
		case isa.Shl:
			regs[in.Rd] = regs[in.Rs1] << (uint64(regs[in.Rs2]) & 63)
		case isa.Shr:
			regs[in.Rd] = regs[in.Rs1] >> (uint64(regs[in.Rs2]) & 63)
		case isa.FAdd:
			regs[in.Rd] = fbits(fval(regs[in.Rs1]) + fval(regs[in.Rs2]))
		case isa.FSub:
			regs[in.Rd] = fbits(fval(regs[in.Rs1]) - fval(regs[in.Rs2]))
		case isa.FMul:
			regs[in.Rd] = fbits(fval(regs[in.Rs1]) * fval(regs[in.Rs2]))
		case isa.FDiv:
			regs[in.Rd] = fbits(fval(regs[in.Rs1]) / fval(regs[in.Rs2]))
		case isa.FSqrt:
			regs[in.Rd] = fbits(math.Sqrt(fval(regs[in.Rs1])))
		case isa.CvtIF:
			regs[in.Rd] = fbits(float64(regs[in.Rs1]))
		case isa.CvtFI:
			regs[in.Rd] = int64(fval(regs[in.Rs1]))

		case isa.Load, isa.Store:
			ea := uint64(regs[in.Rs1] + regs[in.Rs2]*in.EffScale() + in.Disp)
			size := int(in.Size)
			write := in.Op == isa.Store
			if write {
				space.WriteInt(ea, size, regs[in.Rd])
			}
			res := caches.Access(t.Core, in.IP, ea, size, write)
			t.Cycles += uint64(res.Latency)
			t.MemOps++
			if !write {
				regs[in.Rd] = space.ReadInt(ea, size)
			}
			if obs != nil {
				ev := &t.evScratch
				ev.TID = t.ID
				ev.IP = in.IP
				ev.EA = ea
				ev.Size = in.Size
				ev.Write = write
				ev.Latency = res.Latency
				ev.Level = res.Level
				ev.Cycle = t.Now()
				ev.Instrs = t.instrBase + t.Instrs
				ev.Ctx = t.ctx()
				t.OverheadCycles += obs.OnAccess(ev)
			}

		case isa.Jmp:
			t.blk = in.Target
			t.idx = 0
			blk = f.Blocks[t.blk]
			instrs = blk.Instrs
		case isa.Br:
			if in.Cmp.Eval(regs[in.Rs1], regs[in.Rs2]) {
				t.blk = in.Target
				t.idx = 0
				blk = f.Blocks[t.blk]
				instrs = blk.Instrs
			}
		case isa.Call:
			fr := frame{fn: t.fn, blk: t.blk, idx: t.idx, callIP: in.IP}
			fr.regs = *regs
			t.frames = append(t.frames, fr)
			t.callPath = append(t.callPath, in.IP)
			t.ctxStack = append(t.ctxStack, mixCtx(t.ctx(), in.IP))
			t.fn = in.Fn
			t.blk = 0
			t.idx = 0
			f = p.Funcs[t.fn]
			blk = f.Blocks[0]
			instrs = blk.Instrs
		case isa.Ret:
			if len(t.frames) == 0 {
				// Returning from the thread's root function halts it.
				t.Halted = true
				return done, nil
			}
			fr := t.frames[len(t.frames)-1]
			t.frames = t.frames[:len(t.frames)-1]
			t.callPath = t.callPath[:len(t.callPath)-1]
			t.ctxStack = t.ctxStack[:len(t.ctxStack)-1]
			ret := regs[isa.RetReg]
			*regs = fr.regs
			regs[isa.RetReg] = ret
			t.fn, t.blk, t.idx = fr.fn, fr.blk, fr.idx
			f = p.Funcs[t.fn]
			blk = f.Blocks[t.blk]
			instrs = blk.Instrs
		case isa.Halt:
			t.Halted = true
			return done, nil

		case isa.Alloc:
			size := uint64(regs[in.Rs1])
			tid, ok := p.AllocSiteType[in.IP]
			if !ok {
				tid = -1
			}
			obj := space.AllocHeap(size, in.IP, t.callPath, tid)
			regs[in.Rd] = int64(obj.Base)
		case isa.GAddr:
			regs[in.Rd] = int64(m.globalBase[in.Imm])

		default:
			return done, fmt.Errorf("unimplemented opcode %s at %#x", in.Op, in.IP)
		}
		regs[isa.RZ] = 0
	}
	return done, nil
}

func fval(bits int64) float64 { return math.Float64frombits(uint64(bits)) }
func fbits(f float64) int64   { return int64(math.Float64bits(f)) }

// ctx returns the thread's current calling-context hash (0 at the root).
func (t *Thread) ctx() uint64 {
	if n := len(t.ctxStack); n > 0 {
		return t.ctxStack[n-1]
	}
	return 0
}

// mixCtx folds a call-site IP into a context hash (FNV-style).
func mixCtx(h, ip uint64) uint64 {
	if h == 0 {
		h = 1469598103934665603
	}
	for i := 0; i < 8; i++ {
		h ^= ip & 0xff
		h *= 1099511628211
		ip >>= 8
	}
	return h
}

// Stats summarizes one Run.
type Stats struct {
	PerThread []ThreadStats
	// WallCycles is the end-to-end runtime including observer overhead;
	// AppWallCycles excludes it (the unprofiled runtime of the same
	// deterministic execution).
	WallCycles    uint64
	AppWallCycles uint64
	Instrs        uint64
	MemOps        uint64
	Cache         cache.Stats
	// Stat accounts for statistical mode; all-zero on exact runs, so
	// exact-mode differential twins compare Stats wholesale.
	Stat StatCounters
}

// StatCounters records what statistical mode skipped and what it
// simulated, the raw material for the run's error report: of
// Simulated+Skipped memory accesses, only Simulated walked the cache
// hierarchy; the rest were charged EstimatedCycles in total from each
// thread's running-mean latency. Windows counts the fast-forward windows
// armed (one per sampled access with a gap wider than the window).
type StatCounters struct {
	Windows         uint64
	Skipped         uint64
	Simulated       uint64
	EstimatedCycles uint64
}

// ThreadStats is one thread's account.
type ThreadStats struct {
	ID             int
	Cycles         uint64
	OverheadCycles uint64
	Instrs         uint64
	MemOps         uint64
}

// OverheadPct returns the measurement overhead percentage of the run:
// (profiled wall − app wall) / app wall × 100.
func (s Stats) OverheadPct() float64 {
	if s.AppWallCycles == 0 {
		return 0
	}
	return 100 * float64(s.WallCycles-s.AppWallCycles) / float64(s.AppWallCycles)
}

func (m *Machine) stats() Stats {
	var st Stats
	for _, t := range m.Threads {
		ts := ThreadStats{
			ID: t.ID, Cycles: t.Cycles, OverheadCycles: t.OverheadCycles,
			Instrs: t.Instrs, MemOps: t.MemOps,
		}
		st.PerThread = append(st.PerThread, ts)
		st.Instrs += t.Instrs
		st.MemOps += t.MemOps
		st.Stat.Windows += t.statWindows
		st.Stat.Skipped += t.statSkipped
		st.Stat.Simulated += t.simAccesses
		st.Stat.EstimatedCycles += t.statSkipCycles
		if t.Cycles > st.AppWallCycles {
			st.AppWallCycles = t.Cycles
		}
		if w := t.Cycles + t.OverheadCycles; w > st.WallCycles {
			st.WallCycles = w
		}
	}
	st.Cache = m.Caches.Stats()
	return st
}
