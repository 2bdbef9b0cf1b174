// Package isa defines the instruction set of the simulated register
// machine that StructSlim profiles.
//
// The machine is a small 64-bit load/store architecture: 64 virtual
// integer registers (register 0 is hard-wired to zero, like RISC zero
// registers), x86-style memory operands of the form
// base + index*scale + displacement, conditional branches that compare two
// registers, and call/return with a conventional stack of frames. Floating
// point values are carried in the integer registers as IEEE-754 bit
// patterns and operated on by the F* opcodes.
//
// Each instruction carries a synthetic instruction pointer (IP) assigned
// when the enclosing program is finalized, and a source line number from
// the synthetic line table. The IP plays the role of the program counter
// captured by PEBS-style address sampling; the line number plays the role
// of DWARF debug info.
package isa

import "fmt"

// Reg names a virtual register. Register 0 (RZ) always reads as zero;
// writes to it are discarded.
type Reg uint8

// NumRegs is the size of the register file of each thread.
const NumRegs = 64

// RZ is the hard-wired zero register.
const RZ Reg = 0

// Calling convention: r1..r6 pass arguments into a Call and r1 carries the
// return value out of a Ret; the interpreter restores every other register
// from the caller's frame. r8 and up are function-local scratch.
const (
	ArgReg0 Reg = 1
	ArgReg1 Reg = 2
	ArgReg2 Reg = 3
	ArgReg3 Reg = 4
	ArgReg4 Reg = 5
	ArgReg5 Reg = 6
	RetReg  Reg = 1

	// FirstScratchReg is the lowest register handed out by the builder's
	// allocator.
	FirstScratchReg Reg = 8
)

// Op enumerates the machine's opcodes.
type Op uint8

// Opcode values. Loads and stores are the only instructions that touch
// memory; Alloc is the allocator intrinsic (the moral equivalent of an
// interposed malloc) and is what data-centric attribution hooks.
const (
	Nop Op = iota

	// Moves and integer ALU. MovI: Rd = Imm. Mov: Rd = Rs1.
	MovI
	Mov
	Add  // Rd = Rs1 + Rs2
	AddI // Rd = Rs1 + Imm
	Sub  // Rd = Rs1 - Rs2
	Mul  // Rd = Rs1 * Rs2
	MulI // Rd = Rs1 * Imm
	Div  // Rd = Rs1 / Rs2 (0 if Rs2 == 0)
	Rem  // Rd = Rs1 % Rs2 (0 if Rs2 == 0)
	And  // Rd = Rs1 & Rs2
	Or   // Rd = Rs1 | Rs2
	Xor  // Rd = Rs1 ^ Rs2
	Shl  // Rd = Rs1 << (Rs2 & 63)
	Shr  // Rd = int64(Rs1) >> (Rs2 & 63)

	// Floating point on float64 bit patterns.
	FAdd // Rd = bits(float(Rs1) + float(Rs2))
	FSub
	FMul
	FDiv
	FSqrt // Rd = bits(sqrt(float(Rs1)))
	CvtIF // Rd = bits(float64(int64(Rs1)))
	CvtFI // Rd = int64(float(Rs1))

	// Memory. Effective address EA = Rs1 + Rs2*Scale + Disp.
	// Load: Rd = zero/sign-extended mem[EA .. EA+Size).
	// Store: mem[EA .. EA+Size) = low Size bytes of Rd.
	Load
	Store

	// Control flow. Jmp: unconditional to block Target.
	// Br: if cmp(Rs1, Rs2) branch to Target, else fall through to the
	// next block of the function.
	Jmp
	Br

	// Call transfers to function Fn; Ret returns to the instruction after
	// the call. Halt stops the executing thread.
	Call
	Ret
	Halt

	// Alloc: Rd = base address of a fresh heap block of Rs1 bytes. The
	// runtime records the allocation site (this instruction's IP) and the
	// current call path, which data-centric attribution uses as the
	// object's identity.
	Alloc

	// GAddr: Rd = base address of the program's global (static) data
	// object with index Imm. The address is resolved when the program is
	// loaded into a simulated address space, mirroring how a linker
	// resolves symbol references.
	GAddr
)

var opNames = [...]string{
	Nop: "nop", MovI: "movi", Mov: "mov", Add: "add", AddI: "addi",
	Sub: "sub", Mul: "mul", MulI: "muli", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FSqrt: "fsqrt",
	CvtIF: "cvtif", CvtFI: "cvtfi",
	Load: "load", Store: "store", Jmp: "jmp", Br: "br",
	Call: "call", Ret: "ret", Halt: "halt", Alloc: "alloc", GAddr: "gaddr",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMemAccess reports whether the opcode reads or writes data memory.
// These are the instructions PEBS-style address sampling can select.
func (o Op) IsMemAccess() bool { return o == Load || o == Store }

// IsTerminator reports whether the opcode may end a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case Jmp, Br, Ret, Halt:
		return true
	}
	return false
}

// Cond is the comparison predicate of a Br instruction, evaluated as
// cmp(Rs1, Rs2) on signed 64-bit values.
type Cond uint8

// Branch predicates.
const (
	Eq Cond = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

var condNames = [...]string{Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Eval applies the predicate to two register values.
func (c Cond) Eval(a, b int64) bool {
	switch c {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}

// FoldALU evaluates Div, Rem, And, Or, Xor or Shr on two register values
// with the interpreter's semantics: division and remainder by zero yield
// 0, and Shr shifts arithmetically by the count mod 64. The static
// analyses fold constants with it; any other op yields 0.
func FoldALU(op Op, a, b int64) int64 {
	switch op {
	case Div:
		if b == 0 {
			return 0
		}
		return a / b
	case Rem:
		if b == 0 {
			return 0
		}
		return a % b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Shr:
		return a >> (uint64(b) & 63)
	}
	return 0
}

// Instr is one machine instruction. The fields used depend on Op; unused
// fields are zero. The flat one-struct encoding keeps the interpreter's
// dispatch loop free of type switches.
type Instr struct {
	Op     Op
	Cmp    Cond  // Br predicate
	Rd     Reg   // destination; source value for Store
	Rs1    Reg   // first source; base register for Load/Store
	Rs2    Reg   // second source; index register for Load/Store
	Scale  uint8 // index scale for Load/Store (0 or 1 means byte indexing)
	Size   uint8 // access size in bytes for Load/Store: 1, 2, 4, or 8
	Imm    int64 // immediate operand
	Disp   int64 // address displacement for Load/Store
	Target int   // block id for Jmp/Br
	Fn     int   // callee function id for Call

	// Metadata filled in by program finalization.
	IP   uint64 // synthetic instruction pointer
	Line int32  // source line from the synthetic line table
}

// EffScale returns the scale with 0 normalized to 1.
func (in *Instr) EffScale() int64 {
	if in.Scale == 0 {
		return 1
	}
	return int64(in.Scale)
}

// String renders the instruction in a readable assembly-ish syntax.
func (in *Instr) String() string {
	switch in.Op {
	case Nop, Ret, Halt:
		return in.Op.String()
	case MovI:
		return fmt.Sprintf("movi r%d, %d", in.Rd, in.Imm)
	case Mov:
		return fmt.Sprintf("mov r%d, r%d", in.Rd, in.Rs1)
	case AddI:
		return fmt.Sprintf("addi r%d, r%d, %d", in.Rd, in.Rs1, in.Imm)
	case MulI:
		return fmt.Sprintf("muli r%d, r%d, %d", in.Rd, in.Rs1, in.Imm)
	case Load:
		return fmt.Sprintf("load%d r%d, [r%d + r%d*%d + %d]", in.Size, in.Rd, in.Rs1, in.Rs2, in.EffScale(), in.Disp)
	case Store:
		return fmt.Sprintf("store%d [r%d + r%d*%d + %d], r%d", in.Size, in.Rs1, in.Rs2, in.EffScale(), in.Disp, in.Rd)
	case Jmp:
		return fmt.Sprintf("jmp b%d", in.Target)
	case Br:
		return fmt.Sprintf("br.%s r%d, r%d, b%d", in.Cmp, in.Rs1, in.Rs2, in.Target)
	case Call:
		return fmt.Sprintf("call f%d", in.Fn)
	case Alloc:
		return fmt.Sprintf("alloc r%d, r%d", in.Rd, in.Rs1)
	case GAddr:
		return fmt.Sprintf("gaddr r%d, g%d", in.Rd, in.Imm)
	case FSqrt, CvtIF, CvtFI:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.Rd, in.Rs1)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

// Validate checks structural invariants that the interpreter relies on.
func (in *Instr) Validate() error {
	switch in.Op {
	case Load, Store:
		switch in.Size {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("%s: invalid access size %d", in.Op, in.Size)
		}
	case Br, Jmp:
		if in.Target < 0 {
			return fmt.Errorf("%s: negative block target %d", in.Op, in.Target)
		}
	case Call:
		if in.Fn < 0 {
			return fmt.Errorf("call: negative function id %d", in.Fn)
		}
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return fmt.Errorf("%s: register out of range", in.Op)
	}
	return nil
}

// TextBase is the base address of the synthetic text segment. Instruction
// pointers are TextBase + 4*index over the whole program, mimicking a
// fixed-width encoding.
const TextBase uint64 = 0x400000

// InstrBytes is the encoded width used when assigning IPs.
const InstrBytes uint64 = 4
