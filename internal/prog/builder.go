package prog

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Builder constructs Programs imperatively, the way a compiler backend
// lowers structured source. It manages block creation and fallthrough
// order, forward branch patching, a per-function register allocator, and
// the synthetic line table.
//
// Register convention (matching the interpreter): r0 is the zero register;
// r1..r6 pass arguments and r1 returns values across Call/Ret (the
// interpreter restores all other registers on return); r8 and up are
// function-local scratch handed out by R().
type Builder struct {
	p    *Program
	f    *Func
	b    *Block
	line int32

	nextReg isa.Reg
	free    []isa.Reg

	typeIDs map[string]int

	// pendingAllocTypes records Alloc sites whose debug type must be keyed
	// by IP once Finalize has assigned IPs.
	pendingAllocTypes []pendingAlloc
}

// Argument/return registers of the calling convention, re-exported from
// isa for kernel-builder convenience.
const (
	ArgReg0 = isa.ArgReg0
	ArgReg1 = isa.ArgReg1
	ArgReg2 = isa.ArgReg2
	ArgReg3 = isa.ArgReg3
	ArgReg4 = isa.ArgReg4
	ArgReg5 = isa.ArgReg5
	RetReg  = isa.RetReg

	firstScratchReg = isa.FirstScratchReg
)

// NewBuilder starts a new program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		p:       &Program{Name: name, EntryFn: 0, AllocSiteType: make(map[uint64]int)},
		typeIDs: make(map[string]int),
	}
}

// Program finalizes and returns the built program. Structured control
// flow (nested If/loops) naturally leaves empty join blocks behind; they
// are padded with a Nop so the finalized program satisfies the
// no-empty-blocks invariant.
func (b *Builder) Program() (*Program, error) {
	for _, f := range b.p.Funcs {
		for _, blk := range f.Blocks {
			if len(blk.Instrs) == 0 {
				blk.Instrs = append(blk.Instrs, isa.Instr{Op: isa.Nop})
			}
		}
	}
	if err := b.p.Finalize(); err != nil {
		return nil, err
	}
	for _, pa := range b.pendingAllocTypes {
		in := b.p.Funcs[pa.fn].Blocks[pa.blk].Instrs[pa.idx]
		b.p.AllocSiteType[in.IP] = pa.typeID
	}
	return b.p, nil
}

// MustProgram is Program, panicking on error; for statically-known
// workload builders whose shape is covered by tests.
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

// Type registers a struct type (deduplicated by name) and returns its id.
func (b *Builder) Type(st *StructType) int {
	if id, ok := b.typeIDs[st.Name]; ok {
		return id
	}
	id := len(b.p.Types)
	b.p.Types = append(b.p.Types, st)
	b.typeIDs[st.Name] = id
	return id
}

// RegisterLayout registers all physical structs of a layout and returns
// their type ids, in layout order.
func (b *Builder) RegisterLayout(l *PhysLayout) []int {
	ids := make([]int, len(l.Structs))
	for i, st := range l.Structs {
		ids[i] = b.Type(st)
	}
	return ids
}

// Global declares a static data object of the given byte size and returns
// its index. typeID is the element struct type for arrays of structs, or
// -1 for plain memory.
func (b *Builder) Global(name string, size int64, typeID int) int {
	idx := len(b.p.Globals)
	b.p.Globals = append(b.p.Globals, Global{Name: name, Size: size, TypeID: typeID})
	return idx
}

// Func opens a new function and makes it current. Every function starts
// with entry block 0.
func (b *Builder) Func(name, file string) int {
	id := len(b.p.Funcs)
	b.f = &Func{ID: id, Name: name, File: file}
	b.p.Funcs = append(b.p.Funcs, b.f)
	b.nextReg = firstScratchReg
	b.free = b.free[:0]
	b.newBlock()
	return id
}

// SetEntry selects the program's entry function.
func (b *Builder) SetEntry(fn int) { b.p.EntryFn = fn }

// AtLine sets the current synthetic source line; subsequently emitted
// instructions carry it.
func (b *Builder) AtLine(line int) { b.line = int32(line) }

// R allocates a fresh scratch register in the current function.
func (b *Builder) R() isa.Reg {
	if n := len(b.free); n > 0 {
		r := b.free[n-1]
		b.free = b.free[:n-1]
		return r
	}
	if b.nextReg >= isa.NumRegs {
		panic(fmt.Sprintf("builder: out of registers in %s", b.f.Name))
	}
	r := b.nextReg
	b.nextReg++
	return r
}

// Release returns scratch registers to the allocator.
func (b *Builder) Release(regs ...isa.Reg) {
	for _, r := range regs {
		if r >= firstScratchReg {
			b.free = append(b.free, r)
		}
	}
}

func (b *Builder) newBlock() int {
	id := len(b.f.Blocks)
	b.b = &Block{ID: id}
	b.f.Blocks = append(b.f.Blocks, b.b)
	return id
}

// StartBlock closes the current block (falling through) and starts a new
// one, returning its id.
func (b *Builder) StartBlock() int { return b.newBlock() }

// Emit appends a raw instruction to the current block.
func (b *Builder) Emit(in isa.Instr) {
	in.Line = b.line
	b.b.Instrs = append(b.b.Instrs, in)
}

// patchRef identifies a branch whose Target needs patching.
type patchRef struct {
	blk  *Block
	inst int
}

func (b *Builder) emitPatchable(in isa.Instr) patchRef {
	b.Emit(in)
	return patchRef{blk: b.b, inst: len(b.b.Instrs) - 1}
}

func (r patchRef) patch(target int) { r.blk.Instrs[r.inst].Target = target }

// --- Instruction helpers -------------------------------------------------

// Nop emits a no-op (useful to give a line a distinct IP in tests).
func (b *Builder) Nop() { b.Emit(isa.Instr{Op: isa.Nop}) }

// MovI sets rd to an integer constant.
func (b *Builder) MovI(rd isa.Reg, imm int64) { b.Emit(isa.Instr{Op: isa.MovI, Rd: rd, Imm: imm}) }

// MovF sets rd to the bit pattern of a float constant.
func (b *Builder) MovF(rd isa.Reg, f float64) {
	b.Emit(isa.Instr{Op: isa.MovI, Rd: rd, Imm: int64(math.Float64bits(f))})
}

// Mov copies rs into rd.
func (b *Builder) Mov(rd, rs isa.Reg) { b.Emit(isa.Instr{Op: isa.Mov, Rd: rd, Rs1: rs}) }

// Binary ALU helpers.
func (b *Builder) Add(rd, a, c isa.Reg) { b.Emit(isa.Instr{Op: isa.Add, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) AddI(rd, a isa.Reg, imm int64) {
	b.Emit(isa.Instr{Op: isa.AddI, Rd: rd, Rs1: a, Imm: imm})
}
func (b *Builder) Sub(rd, a, c isa.Reg) { b.Emit(isa.Instr{Op: isa.Sub, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Mul(rd, a, c isa.Reg) { b.Emit(isa.Instr{Op: isa.Mul, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) MulI(rd, a isa.Reg, imm int64) {
	b.Emit(isa.Instr{Op: isa.MulI, Rd: rd, Rs1: a, Imm: imm})
}
func (b *Builder) Div(rd, a, c isa.Reg)  { b.Emit(isa.Instr{Op: isa.Div, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Rem(rd, a, c isa.Reg)  { b.Emit(isa.Instr{Op: isa.Rem, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) And(rd, a, c isa.Reg)  { b.Emit(isa.Instr{Op: isa.And, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Or(rd, a, c isa.Reg)   { b.Emit(isa.Instr{Op: isa.Or, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Xor(rd, a, c isa.Reg)  { b.Emit(isa.Instr{Op: isa.Xor, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Shl(rd, a, c isa.Reg)  { b.Emit(isa.Instr{Op: isa.Shl, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Shr(rd, a, c isa.Reg)  { b.Emit(isa.Instr{Op: isa.Shr, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) FAdd(rd, a, c isa.Reg) { b.Emit(isa.Instr{Op: isa.FAdd, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) FSub(rd, a, c isa.Reg) { b.Emit(isa.Instr{Op: isa.FSub, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) FMul(rd, a, c isa.Reg) { b.Emit(isa.Instr{Op: isa.FMul, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) FDiv(rd, a, c isa.Reg) { b.Emit(isa.Instr{Op: isa.FDiv, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) FSqrt(rd, a isa.Reg)   { b.Emit(isa.Instr{Op: isa.FSqrt, Rd: rd, Rs1: a}) }
func (b *Builder) CvtIF(rd, a isa.Reg)   { b.Emit(isa.Instr{Op: isa.CvtIF, Rd: rd, Rs1: a}) }
func (b *Builder) CvtFI(rd, a isa.Reg)   { b.Emit(isa.Instr{Op: isa.CvtFI, Rd: rd, Rs1: a}) }

// Load emits rd = mem[base + idx*scale + disp] of the given size.
func (b *Builder) Load(rd, base, idx isa.Reg, scale int, disp int64, size int) {
	b.Emit(isa.Instr{Op: isa.Load, Rd: rd, Rs1: base, Rs2: idx, Scale: uint8(scale), Disp: disp, Size: uint8(size)})
}

// Store emits mem[base + idx*scale + disp] = val of the given size.
func (b *Builder) Store(val, base, idx isa.Reg, scale int, disp int64, size int) {
	b.Emit(isa.Instr{Op: isa.Store, Rd: val, Rs1: base, Rs2: idx, Scale: uint8(scale), Disp: disp, Size: uint8(size)})
}

// GAddr loads the address of global g into rd.
func (b *Builder) GAddr(rd isa.Reg, g int) {
	b.Emit(isa.Instr{Op: isa.GAddr, Rd: rd, Imm: int64(g)})
}

// Call emits a call to function fn.
func (b *Builder) Call(fn int) { b.Emit(isa.Instr{Op: isa.Call, Fn: fn}) }

// Ret emits a return.
func (b *Builder) Ret() { b.Emit(isa.Instr{Op: isa.Ret}) }

// Halt emits a thread stop.
func (b *Builder) Halt() { b.Emit(isa.Instr{Op: isa.Halt}) }

// Jmp emits an unconditional jump to an existing block.
func (b *Builder) Jmp(target int) { b.Emit(isa.Instr{Op: isa.Jmp, Target: target}) }

// Br emits a conditional branch to an existing block.
func (b *Builder) Br(c isa.Cond, a, rhs isa.Reg, target int) {
	b.Emit(isa.Instr{Op: isa.Br, Cmp: c, Rs1: a, Rs2: rhs, Target: target})
}

// Alloc emits rd = heap allocation of size bytes (from register), with an
// optional struct type id (-1 for untyped) recorded as the allocation
// site's debug type. The type is attached after finalization via the
// instruction's IP, so the builder records the pending location.
func (b *Builder) Alloc(rd, sizeReg isa.Reg, typeID int) {
	b.Emit(isa.Instr{Op: isa.Alloc, Rd: rd, Rs1: sizeReg})
	if typeID >= 0 {
		b.pendingAllocTypes = append(b.pendingAllocTypes, pendingAlloc{
			fn: b.f.ID, blk: b.b.ID, idx: len(b.b.Instrs) - 1, typeID: typeID,
		})
	}
}

type pendingAlloc struct {
	fn, blk, idx, typeID int
}

// --- Structured control flow ---------------------------------------------

// ForRange emits a counted loop: for iv = start; iv < stop; iv += step.
// The body callback emits the loop body; it may itself create blocks and
// nested loops. step must be positive. The loop's trip-count bound is kept
// in a dedicated register for the loop's duration.
func (b *Builder) ForRange(iv isa.Reg, start, stop, step int64, body func()) {
	if step <= 0 {
		panic("ForRange: step must be positive")
	}
	bound := b.R()
	b.MovI(bound, stop)
	b.MovI(iv, start)
	head := b.StartBlock()
	exitBr := b.emitPatchable(isa.Instr{Op: isa.Br, Cmp: isa.Ge, Rs1: iv, Rs2: bound, Line: b.line})
	b.StartBlock() // loop body; header falls through here
	body()
	b.AddI(iv, iv, step)
	b.Jmp(head)
	exit := b.StartBlock()
	exitBr.patch(exit)
	b.Release(bound)
}

// ForRangeReg is ForRange with a register bound (computed trip counts).
func (b *Builder) ForRangeReg(iv isa.Reg, start int64, stopReg isa.Reg, step int64, body func()) {
	if step <= 0 {
		panic("ForRangeReg: step must be positive")
	}
	b.MovI(iv, start)
	head := b.StartBlock()
	exitBr := b.emitPatchable(isa.Instr{Op: isa.Br, Cmp: isa.Ge, Rs1: iv, Rs2: stopReg, Line: b.line})
	b.StartBlock()
	body()
	b.AddI(iv, iv, step)
	b.Jmp(head)
	exit := b.StartBlock()
	exitBr.patch(exit)
}

// WhileNZ emits: while (p != 0) { body } — the pointer-chasing loop shape
// used by linked-structure workloads (TSP, CLOMP, Health).
func (b *Builder) WhileNZ(p isa.Reg, body func()) {
	head := b.StartBlock()
	exitBr := b.emitPatchable(isa.Instr{Op: isa.Br, Cmp: isa.Eq, Rs1: p, Rs2: isa.RZ, Line: b.line})
	b.StartBlock()
	body()
	b.Jmp(head)
	exit := b.StartBlock()
	exitBr.patch(exit)
}

// WhileLt emits: while (a < bound) { body }. The body is responsible for
// advancing a (e.g. a CSR edge cursor).
func (b *Builder) WhileLt(a, bound isa.Reg, body func()) {
	head := b.StartBlock()
	exitBr := b.emitPatchable(isa.Instr{Op: isa.Br, Cmp: isa.Ge, Rs1: a, Rs2: bound, Line: b.line})
	b.StartBlock()
	body()
	b.Jmp(head)
	exit := b.StartBlock()
	exitBr.patch(exit)
}

// If emits a conditional: if cmp(a, rhs) { then } else { els }. els may be
// nil. Both arms join at a fresh block.
func (b *Builder) If(c isa.Cond, a, rhs isa.Reg, then func(), els func()) {
	// Branch to the then-arm on the condition; fall through to else.
	thenBr := b.emitPatchable(isa.Instr{Op: isa.Br, Cmp: c, Rs1: a, Rs2: rhs, Line: b.line})
	b.StartBlock()
	if els != nil {
		els()
	}
	joinJmp := b.emitPatchable(isa.Instr{Op: isa.Jmp, Line: b.line})
	thenBlk := b.StartBlock()
	thenBr.patch(thenBlk)
	then()
	join := b.StartBlock()
	joinJmp.patch(join)
}

// LoadField emits rd = element idx's field of a record array laid out by l.
// bases[k] must hold the base address of the layout's k-th physical array.
// The access width is min(field size, 8) — wider fields (byte arrays) are
// touched at their first word, which is how the paper's kernels read e.g.
// NN's entry field header.
func (b *Builder) LoadField(rd isa.Reg, l *PhysLayout, bases []isa.Reg, idx isa.Reg, field string) {
	pl := l.Place(field)
	st := l.Structs[pl.Arr]
	f := st.FieldAt(pl.Offset)
	size := f.Size
	if size > 8 {
		size = 8
	}
	b.Load(rd, bases[pl.Arr], idx, st.Size, int64(pl.Offset), size)
}

// StoreField is the store counterpart of LoadField.
func (b *Builder) StoreField(val isa.Reg, l *PhysLayout, bases []isa.Reg, idx isa.Reg, field string) {
	pl := l.Place(field)
	st := l.Structs[pl.Arr]
	f := st.FieldAt(pl.Offset)
	size := f.Size
	if size > 8 {
		size = 8
	}
	b.Store(val, bases[pl.Arr], idx, st.Size, int64(pl.Offset), size)
}

// FieldAddr emits rd = address of element idx's field (no memory access).
func (b *Builder) FieldAddr(rd isa.Reg, l *PhysLayout, bases []isa.Reg, idx isa.Reg, field string) {
	pl := l.Place(field)
	st := l.Structs[pl.Arr]
	tmp := b.R()
	b.MulI(tmp, idx, int64(st.Size))
	b.Add(rd, bases[pl.Arr], tmp)
	if pl.Offset != 0 {
		b.AddI(rd, rd, int64(pl.Offset))
	}
	b.Release(tmp)
}
