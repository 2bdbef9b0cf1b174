package prog

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestAllEmitters drives every convenience emitter once and checks the
// produced opcodes via the disassembly, pinning the builder/ISA mapping.
func TestAllEmitters(t *testing.T) {
	b := NewBuilder("emitters")
	rec := MustRecord("pair", Field{Name: "x", Size: 8}, Field{Name: "y", Size: 8})
	l := AoS(rec)
	tids := b.RegisterLayout(l)
	g := b.Global("arr", 64*16, tids[0])

	leaf := b.Func("leaf", "e.c")
	b.Nop()
	b.Ret()

	main := b.Func("main", "e.c")
	base := b.R()
	b.GAddr(base, g)
	r1, r2, r3 := b.R(), b.R(), b.R()
	b.MovI(r1, 7)
	b.MovF(r2, 2.5)
	b.Mov(r3, r1)
	b.Add(r3, r1, r2)
	b.AddI(r3, r3, 5)
	b.Sub(r3, r3, r1)
	b.Mul(r3, r3, r1)
	b.MulI(r3, r3, 3)
	b.Div(r3, r3, r1)
	b.Rem(r3, r3, r1)
	b.And(r3, r3, r1)
	b.Or(r3, r3, r1)
	b.Xor(r3, r3, r1)
	b.Shl(r3, r3, r1)
	b.Shr(r3, r3, r1)
	b.FAdd(r3, r3, r2)
	b.FSub(r3, r3, r2)
	b.FMul(r3, r3, r2)
	b.FDiv(r3, r3, r2)
	b.FSqrt(r3, r3)
	b.CvtIF(r3, r1)
	b.CvtFI(r3, r3)
	idx := b.R()
	b.MovI(idx, 3)
	b.LoadField(r3, l, []isa.Reg{base}, idx, "x")
	b.StoreField(r3, l, []isa.Reg{base}, idx, "y")
	b.FieldAddr(r3, l, []isa.Reg{base}, idx, "y")
	sz := b.R()
	b.MovI(sz, 32)
	b.Alloc(r3, sz, tids[0])
	b.Call(leaf)
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	d := p.Disasm()
	for _, op := range []string{
		"movi", "mov ", "add ", "addi", "sub", "mul ", "muli", "div", "rem",
		"and", "or ", "xor", "shl", "shr", "fadd", "fsub", "fmul", "fdiv",
		"fsqrt", "cvtif", "cvtfi", "load8", "store8", "alloc", "call", "gaddr",
		"halt", "ret", "nop",
	} {
		if !strings.Contains(d, op) {
			t.Errorf("disassembly missing %q", op)
		}
	}

	// FieldAddr result: base + 3*16 + 8.
	if p.NumInstrs() == 0 {
		t.Fatal("no instructions")
	}
	if got := p.TypeOfGlobal(g); got == nil || got.Name != "pair" {
		t.Errorf("TypeOfGlobal = %v", got)
	}
	if p.TypeOfGlobal(99) != nil || p.TypeOfGlobal(-1) != nil {
		t.Error("out-of-range global type lookup")
	}
	if p.FuncByName("nope") != nil {
		t.Error("FuncByName ghost")
	}
}

func TestForRangeRejectsBadStep(t *testing.T) {
	b := NewBuilder("badstep")
	b.Func("main", "x.c")
	defer func() {
		if recover() == nil {
			t.Error("non-positive step accepted")
		}
	}()
	b.ForRange(b.R(), 0, 10, 0, func() {})
}

func TestForRangeRegRejectsBadStep(t *testing.T) {
	b := NewBuilder("badstep2")
	b.Func("main", "x.c")
	defer func() {
		if recover() == nil {
			t.Error("non-positive step accepted")
		}
	}()
	b.ForRangeReg(b.R(), 0, b.R(), -1, func() {})
}

func TestEmptyBlockPadding(t *testing.T) {
	// Nested Ifs leave empty join blocks; Program() must pad them.
	b := NewBuilder("pad")
	b.Func("main", "x.c")
	r := b.R()
	b.MovI(r, 1)
	b.If(isa.Gt, r, isa.RZ, func() {
		b.If(isa.Lt, r, isa.RZ, func() { b.Nop() }, nil)
	}, nil)
	b.Halt()
	p, err := b.Program()
	if err != nil {
		t.Fatalf("nested-if program rejected: %v", err)
	}
	for _, blk := range p.Funcs[0].Blocks {
		if len(blk.Instrs) == 0 {
			t.Fatal("empty block survived finalization")
		}
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	b := NewBuilder("idem")
	b.Func("main", "x.c")
	b.Halt()
	p := b.MustProgram()
	ip := p.Funcs[0].Blocks[0].Instrs[0].IP
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if p.Funcs[0].Blocks[0].Instrs[0].IP != ip {
		t.Error("second Finalize changed IPs")
	}
}
