package isa_test

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/vm"
)

// TestFoldALUMatchesInterpreter: the static analyses' constant folder
// must agree with the reference interpreter on the edge cases where Go's
// operators and the ISA could part ways — division and remainder by
// zero, the one overflowing quotient, and shift counts outside [0, 63].
func TestFoldALUMatchesInterpreter(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b int64
	}{
		{isa.Div, 7, 0},
		{isa.Div, math.MinInt64, -1},
		{isa.Div, -7, 2},
		{isa.Rem, 7, 0},
		{isa.Rem, math.MinInt64, -1},
		{isa.Rem, -7, 2},
		{isa.Shr, -256, 0},
		{isa.Shr, -256, 63},
		{isa.Shr, -256, 64},
		{isa.Shr, -256, -1},
		{isa.Shr, math.MaxInt64, 64},
		{isa.And, -1, 0x0ff0},
		{isa.Or, math.MinInt64, 1},
		{isa.Xor, -1, 5},
	}
	for _, tc := range cases {
		b := prog.NewBuilder("fold")
		b.Func("main", "fold.c")
		b.Emit(isa.Instr{Op: isa.MovI, Rd: 8, Imm: tc.a})
		b.Emit(isa.Instr{Op: isa.MovI, Rd: 9, Imm: tc.b})
		b.Emit(isa.Instr{Op: tc.op, Rd: 10, Rs1: 8, Rs2: 9})
		b.Halt()
		m, err := vm.NewMachine(b.MustProgram(), cache.DefaultConfig(), 1, vm.Config{Reference: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(nil); err != nil {
			t.Fatal(err)
		}
		want := m.Threads[0].Regs[10]
		if got := isa.FoldALU(tc.op, tc.a, tc.b); got != want {
			t.Errorf("FoldALU(%s, %d, %d) = %d, interpreter %d", tc.op, tc.a, tc.b, got, want)
		}
	}
}
