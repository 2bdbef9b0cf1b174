package vm

// compile.go is the block-compiled execution engine. NewMachine
// pre-decodes every function into a flat array of resolved micro-ops
// (cop): block lists are concatenated in order so fallthrough is just
// pc+1, branch targets become flat indices, global bases and
// allocation-site types are resolved once, and each op carries its base
// cost. The executor (stepThreadFast) then runs a tight fetch loop with
// no per-instruction table lookups or block chasing.
//
// The engine is an optimization, not a semantic variant: it executes the
// same instructions in the same order with the same costs as the
// reference interpreter (stepThread), so every observable — register
// values, memory, cache state transitions, observer event streams, cycle
// accounts — is bit-identical. Config.Reference forces the interpreter;
// the differential tests in fastpath_test.go hold the two engines equal.

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
)

// cop is one pre-decoded micro-op. Operand fields are copied out of
// isa.Instr; target is overloaded per op: the flat uop index of the
// branch target (Jmp/Br), the callee function id (Call), the
// allocation-site type id (Alloc, -1 if untyped), or the index of the
// access in the program's memOp table (Load/Store). GAddr's imm is the
// resolved global base address.
type cop struct {
	op           isa.Op
	cmp          isa.Cond
	rd, rs1, rs2 isa.Reg
	size         uint8
	cost         uint8
	target       int32
	imm          int64
	disp         int64
	scale        int64 // EffScale, normalized at compile time
	ip           uint64
}

// compileFunc flattens one function into a cop array. Concatenating the
// blocks in order makes fallthrough implicit (Finalize guarantees every
// block is non-empty and the function's last block ends in a
// terminator, so pc never runs past the end through fallthrough).
func compileFunc(p *prog.Program, f *prog.Func, globalBase []uint64, memOps *[]memOp) []cop {
	starts := make([]int32, len(f.Blocks))
	n := 0
	for bi, b := range f.Blocks {
		starts[bi] = int32(n)
		n += len(b.Instrs)
	}
	code := make([]cop, 0, n)
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			u := cop{
				op: in.Op, cmp: in.Cmp, rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2,
				size: in.Size, cost: uint8(opCost[in.Op]),
				imm: in.Imm, disp: in.Disp, scale: in.EffScale(), ip: in.IP,
			}
			switch in.Op {
			case isa.Jmp, isa.Br:
				u.target = starts[in.Target]
			case isa.Call:
				u.target = int32(in.Fn)
			case isa.GAddr:
				u.imm = int64(globalBase[in.Imm])
			case isa.Load, isa.Store:
				u.target = int32(len(*memOps))
				*memOps = append(*memOps, memOp{ip: in.IP, size: in.Size, write: in.Op == isa.Store})
			case isa.Alloc:
				tid, ok := p.AllocSiteType[in.IP]
				if !ok {
					tid = -1
				}
				u.target = int32(tid)
			}
			code = append(code, u)
		}
	}
	return code
}

// compileProgram compiles every function against the loaded global bases
// and returns the code with the table of its memory accesses.
func compileProgram(p *prog.Program, globalBase []uint64) ([][]cop, []memOp) {
	code := make([][]cop, len(p.Funcs))
	var memOps []memOp
	for fi, f := range p.Funcs {
		code[fi] = compileFunc(p, f, globalBase, &memOps)
	}
	return code, memOps
}

// GapSampler is an AccessObserver that can tell the machine, after each
// delivered event, how many upcoming events it will certainly ignore.
// The machine then runs those accesses through a no-copy-out path —
// memory, cache, and cycle effects happen as always, but no MemEvent is
// materialized — and squares the books before the next delivery.
//
// AccessGap returns either a count of future *accesses* that need no
// delivery (byInstrs false; the machine reports them in bulk via
// SkipAccesses before the next OnAccess), or a MemEvent.Instrs threshold
// below which accesses need no delivery at all (byInstrs true; nothing
// is reported back — the sampler's state does not depend on
// sub-threshold events).
//
// SampleAccess and ChargeSample split OnAccess at the line between
// functional and timing work, so the pipelined engine (pipeline.go) can
// run them on different goroutines; OnAccess(ev) must equal
// ChargeSample(ev, obj) when SampleAccess(ev) returns (obj, true), and 0
// otherwise. SampleAccess sees an event whose Latency, Level and Cycle
// are zero; it decides whether the access is a sample and, for one,
// returns the data object it hit (nil if none), because the address
// space moves on before the timing side runs. ChargeSample gets the
// completed event and returns the overhead cycles to charge. Each half
// keeps to its own sampler state: the two may run concurrently.
type GapSampler interface {
	AccessObserver
	AccessGap(tid int) (gap uint64, byInstrs bool)
	SkipAccesses(tid int, n uint64)
	SampleAccess(ev *MemEvent) (obj *mem.Object, sample bool)
	ChargeSample(ev *MemEvent, obj *mem.Object) (overheadCycles uint64)
}

// fastForward splits a statistical run's inter-sample gap: of the gap
// accesses the sampler will certainly ignore, the leading ones may run
// with exact program semantics but estimated memory latency, without
// walking the cache hierarchy, so that the trailing window accesses
// before the next sample still run the full cache model as warmup. A gap
// no wider than the window is simulated whole.
func fastForward(gap, window uint64) uint64 {
	if gap <= window {
		return 0
	}
	return gap - window
}

// deliverAccess materializes the full MemEvent for one access, flushes
// any batched skips first so a gap sampler's counters are exact, and
// re-arms the thread's skip budget from the sampler afterwards. When the
// Run pipelines, it does only OnAccess's functional half here and queues
// a sample for the timing side, which completes and charges it.
func (m *Machine) deliverAccess(t *Thread, ip, ea uint64, size uint8, write bool, res cache.Result) (sample bool) {
	if m.gap != nil && !m.gapByInstr && t.pendSkip > 0 {
		m.gap.SkipAccesses(t.ID, t.pendSkip)
		t.pendSkip = 0
	}
	ev := &t.evScratch
	ev.TID = t.ID
	ev.IP = ip
	ev.EA = ea
	ev.Size = size
	ev.Write = write
	ev.Instrs = t.instrBase + t.Instrs
	ev.Ctx = t.ctx()
	if m.pipe != nil {
		ev.Latency, ev.Level, ev.Cycle = 0, 0, 0
		var obj *mem.Object
		if obj, sample = m.gap.SampleAccess(ev); sample {
			c := m.pipe.cur
			c.samples = append(c.samples, sampleRec{obj: obj, cycles: t.Cycles, instrs: ev.Instrs, ctx: ev.Ctx})
		}
	} else {
		ev.Latency = res.Latency
		ev.Level = res.Level
		ev.Cycle = t.Now()
		t.OverheadCycles += m.Observer.OnAccess(ev)
	}
	if m.gap != nil {
		t.arm(m.gap.AccessGap(t.ID))
	}
	return sample
}

// flushSkips reports batched skipped accesses to the gap sampler. Called
// on every exit from stepThreadFast so the sampler's counters are exact
// whenever the machine is not mid-quantum (quantum rotation, thread
// halt, end of a phase).
func (m *Machine) flushSkips(t *Thread) {
	if m.gap != nil && !m.gapByInstr && t.pendSkip > 0 {
		m.gap.SkipAccesses(t.ID, t.pendSkip)
		t.pendSkip = 0
	}
}

// stepThreadFast runs up to quantum micro-ops of one thread on the
// compiled code. It mirrors stepThread case by case; the differences are
// mechanical (flat pc instead of block/index, pre-resolved operands) and
// the batched observer delivery on Load/Store.
func (m *Machine) stepThreadFast(t *Thread, quantum int) (uint64, error) {
	space := m.Space
	caches := m.Caches
	obs := m.Observer
	gap := m.gap
	gapByInstr := m.gapByInstr
	stat := m.stat
	pipe := m.pipe
	statW := uint64(m.cfg.StatWindow)
	code := m.code[t.fn]
	pc := t.pc
	regs := &t.Regs
	// The per-instruction accounts accumulate in locals (registers) and
	// are stored back on every exit and before any external call that
	// could observe the thread; the reference engine updates the fields
	// directly, so flush points are everywhere an observer runs.
	instrs := t.Instrs
	cycles := t.Cycles
	memOps := t.MemOps
	sampSkip := t.sampSkip
	pendSkip := t.pendSkip
	var done uint64

	for int(done) < quantum {
		u := &code[pc]
		pc++
		done++
		instrs++
		cycles += uint64(u.cost)

		switch u.op {
		case isa.Nop:
		case isa.MovI:
			regs[u.rd] = u.imm
		case isa.Mov:
			regs[u.rd] = regs[u.rs1]
		case isa.Add:
			regs[u.rd] = regs[u.rs1] + regs[u.rs2]
		case isa.AddI:
			regs[u.rd] = regs[u.rs1] + u.imm
		case isa.Sub:
			regs[u.rd] = regs[u.rs1] - regs[u.rs2]
		case isa.Mul:
			regs[u.rd] = regs[u.rs1] * regs[u.rs2]
		case isa.MulI:
			regs[u.rd] = regs[u.rs1] * u.imm
		case isa.Div:
			if d := regs[u.rs2]; d != 0 {
				regs[u.rd] = regs[u.rs1] / d
			} else {
				regs[u.rd] = 0
			}
		case isa.Rem:
			if d := regs[u.rs2]; d != 0 {
				regs[u.rd] = regs[u.rs1] % d
			} else {
				regs[u.rd] = 0
			}
		case isa.And:
			regs[u.rd] = regs[u.rs1] & regs[u.rs2]
		case isa.Or:
			regs[u.rd] = regs[u.rs1] | regs[u.rs2]
		case isa.Xor:
			regs[u.rd] = regs[u.rs1] ^ regs[u.rs2]
		case isa.Shl:
			regs[u.rd] = regs[u.rs1] << (uint64(regs[u.rs2]) & 63)
		case isa.Shr:
			regs[u.rd] = regs[u.rs1] >> (uint64(regs[u.rs2]) & 63)
		case isa.FAdd:
			regs[u.rd] = fbits(fval(regs[u.rs1]) + fval(regs[u.rs2]))
		case isa.FSub:
			regs[u.rd] = fbits(fval(regs[u.rs1]) - fval(regs[u.rs2]))
		case isa.FMul:
			regs[u.rd] = fbits(fval(regs[u.rs1]) * fval(regs[u.rs2]))
		case isa.FDiv:
			regs[u.rd] = fbits(fval(regs[u.rs1]) / fval(regs[u.rs2]))
		case isa.FSqrt:
			regs[u.rd] = fbits(math.Sqrt(fval(regs[u.rs1])))
		case isa.CvtIF:
			regs[u.rd] = fbits(float64(regs[u.rs1]))
		case isa.CvtFI:
			regs[u.rd] = int64(fval(regs[u.rs1]))

		case isa.Load, isa.Store:
			ea := uint64(regs[u.rs1] + regs[u.rs2]*u.scale + u.disp)
			size := int(u.size)
			write := u.op == isa.Store
			if write {
				space.WriteInt(ea, size, regs[u.rd])
			} else {
				regs[u.rd] = space.ReadInt(ea, size)
			}
			memOps++
			if t.ffSkip > 0 {
				// Statistical fast-forward: the memory access above keeps
				// program semantics exact; the cache walk is replaced by
				// the thread's running-mean latency, and the access is
				// batched as a sampler skip like any other non-sample
				// access.
				t.ffSkip--
				cycles += t.estLat
				t.statSkipped++
				t.statSkipCycles += t.estLat
				if sampSkip > 0 {
					sampSkip--
					pendSkip++
				}
				break
			}
			deliver := obs != nil
			if gap != nil {
				if gapByInstr {
					deliver = instrs >= t.instrGate
				} else if sampSkip > 0 {
					sampSkip--
					pendSkip++
					deliver = false
				}
			}
			if pipe != nil {
				// Pipelined tail: select on this side, time on the other.
				sample := false
				if deliver {
					t.Instrs, t.Cycles, t.MemOps = instrs, cycles, memOps
					t.sampSkip, t.pendSkip = sampSkip, pendSkip
					sample = m.deliverAccess(t, u.ip, ea, u.size, write, cache.Result{})
					sampSkip, pendSkip = t.sampSkip, t.pendSkip
				}
				pipe.put(ea, u.target, t.ID, sample)
				break
			}
			var res cache.Result
			res, cycles = timeAccess(caches, t.Core, u.ip, ea, u.size, write, cycles)
			if stat {
				t.simLatSum += uint64(res.Latency)
				t.simAccesses++
			}
			if deliver {
				t.Instrs, t.Cycles, t.MemOps = instrs, cycles, memOps
				t.sampSkip, t.pendSkip = sampSkip, pendSkip
				m.deliverAccess(t, u.ip, ea, u.size, write, res)
				sampSkip, pendSkip = t.sampSkip, t.pendSkip
				// Delivery re-armed sampSkip from the sampler's AccessGap:
				// the gap to the next sample, which the window splits.
				if stat {
					if ff := fastForward(sampSkip, statW); ff > 0 {
						t.ffSkip = ff
						t.estLat = t.simLatSum / t.simAccesses
						t.statWindows++
						caches.Age(t.Core, ff)
					}
				}
			}

		case isa.Jmp:
			pc = int(u.target)
		case isa.Br:
			if u.cmp.Eval(regs[u.rs1], regs[u.rs2]) {
				pc = int(u.target)
			}
		case isa.Call:
			fr := frame{fn: t.fn, pc: pc, callIP: u.ip}
			fr.regs = *regs
			t.frames = append(t.frames, fr)
			t.callPath = append(t.callPath, u.ip)
			t.ctxStack = append(t.ctxStack, mixCtx(t.ctx(), u.ip))
			t.fn = int(u.target)
			pc = 0
			code = m.code[t.fn]
		case isa.Ret:
			if len(t.frames) == 0 {
				// Returning from the thread's root function halts it.
				t.Halted = true
				t.pc = pc
				t.Instrs, t.Cycles, t.MemOps = instrs, cycles, memOps
				t.sampSkip, t.pendSkip = sampSkip, pendSkip
				m.flushSkips(t)
				return done, nil
			}
			fr := t.frames[len(t.frames)-1]
			t.frames = t.frames[:len(t.frames)-1]
			t.callPath = t.callPath[:len(t.callPath)-1]
			t.ctxStack = t.ctxStack[:len(t.ctxStack)-1]
			ret := regs[isa.RetReg]
			*regs = fr.regs
			regs[isa.RetReg] = ret
			t.fn, pc = fr.fn, fr.pc
			code = m.code[t.fn]
		case isa.Halt:
			t.Halted = true
			t.pc = pc
			t.Instrs, t.Cycles, t.MemOps = instrs, cycles, memOps
			t.sampSkip, t.pendSkip = sampSkip, pendSkip
			m.flushSkips(t)
			return done, nil

		case isa.Alloc:
			size := uint64(regs[u.rs1])
			obj := space.AllocHeap(size, u.ip, t.callPath, int(u.target))
			regs[u.rd] = int64(obj.Base)
		case isa.GAddr:
			regs[u.rd] = u.imm

		default:
			t.pc = pc
			t.Instrs, t.Cycles, t.MemOps = instrs, cycles, memOps
			t.sampSkip, t.pendSkip = sampSkip, pendSkip
			m.flushSkips(t)
			return done, fmt.Errorf("unimplemented opcode %s at %#x", u.op, u.ip)
		}
		regs[isa.RZ] = 0
	}
	t.pc = pc
	t.Instrs, t.Cycles, t.MemOps = instrs, cycles, memOps
	t.sampSkip, t.pendSkip = sampSkip, pendSkip
	m.flushSkips(t)
	return done, nil
}
