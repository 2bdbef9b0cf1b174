package vm

// Differential testing of the interpreter: random straight-line programs
// over the ALU subset are executed both by the machine and by a direct
// Go-side evaluator; the full register files must agree. This is the
// standard compilers trick for catching opcode-semantics drift without
// hand-writing a case per instruction.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// aluOps are the opcodes the generator draws from.
var aluOps = []isa.Op{
	isa.MovI, isa.Mov, isa.Add, isa.AddI, isa.Sub, isa.Mul, isa.MulI,
	isa.Div, isa.Rem, isa.And, isa.Or, isa.Xor, isa.Shl, isa.Shr,
	isa.FAdd, isa.FSub, isa.FMul, isa.FDiv, isa.FSqrt, isa.CvtIF, isa.CvtFI,
}

// evalRef interprets one ALU instruction against a reference register
// file, mirroring the language of the ISA documentation rather than the
// interpreter's code.
func evalRef(regs *[isa.NumRegs]int64, in isa.Instr) {
	a, b := regs[in.Rs1], regs[in.Rs2]
	var out int64
	switch in.Op {
	case isa.MovI:
		out = in.Imm
	case isa.Mov:
		out = a
	case isa.Add:
		out = a + b
	case isa.AddI:
		out = a + in.Imm
	case isa.Sub:
		out = a - b
	case isa.Mul:
		out = a * b
	case isa.MulI:
		out = a * in.Imm
	case isa.Div:
		if b != 0 {
			out = a / b
		}
	case isa.Rem:
		if b != 0 {
			out = a % b
		}
	case isa.And:
		out = a & b
	case isa.Or:
		out = a | b
	case isa.Xor:
		out = a ^ b
	case isa.Shl:
		out = a << (uint64(b) & 63)
	case isa.Shr:
		out = a >> (uint64(b) & 63)
	case isa.FAdd:
		out = f2i(i2f(a) + i2f(b))
	case isa.FSub:
		out = f2i(i2f(a) - i2f(b))
	case isa.FMul:
		out = f2i(i2f(a) * i2f(b))
	case isa.FDiv:
		out = f2i(i2f(a) / i2f(b))
	case isa.FSqrt:
		out = f2i(math.Sqrt(i2f(a)))
	case isa.CvtIF:
		out = f2i(float64(a))
	case isa.CvtFI:
		out = int64(i2f(a))
	}
	regs[in.Rd] = out
	regs[isa.RZ] = 0
}

func i2f(v int64) float64 { return math.Float64frombits(uint64(v)) }
func f2i(f float64) int64 { return int64(math.Float64bits(f)) }

// sameValue treats NaN bit patterns of the same kind as equal (Go's
// math.Sqrt of negative values etc. produce deterministic NaNs, but we
// compare bit-exactly anyway — the interpreter and reference share the
// host FPU).
func sameValue(x, y int64) bool { return x == y }

func TestDifferentialALU(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	const rounds = 200
	const instrsPerRound = 120

	for round := 0; round < rounds; round++ {
		b := prog.NewBuilder("difftest")
		b.Func("main", "d.c")

		var ref [isa.NumRegs]int64
		// Seed a few registers with interesting values.
		seeds := []int64{
			0, 1, -1, math.MaxInt64, math.MinInt64,
			f2i(1.5), f2i(-2.25), f2i(0.0), rng.Int63(), -rng.Int63(),
		}
		for ri, v := range seeds {
			rd := isa.Reg(8 + ri)
			b.Emit(isa.Instr{Op: isa.MovI, Rd: rd, Imm: v})
			ref[rd] = v
		}

		regRange := func() isa.Reg { return isa.Reg(rng.Intn(24)) } // includes r0 and seeded regs
		for k := 0; k < instrsPerRound; k++ {
			op := aluOps[rng.Intn(len(aluOps))]
			in := isa.Instr{
				Op:  op,
				Rd:  isa.Reg(rng.Intn(24)),
				Rs1: regRange(),
				Rs2: regRange(),
				Imm: rng.Int63() - rng.Int63(),
			}
			b.Emit(in)
			evalRef(&ref, in)
		}
		b.Halt()
		p := b.MustProgram()

		m, err := NewMachine(p, testCacheConfig(), 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := m.Threads[0].Regs
		for r := 0; r < isa.NumRegs; r++ {
			if !sameValue(got[r], ref[r]) {
				t.Fatalf("round %d: r%d = %#x, reference %#x\nprogram:\n%s",
					round, r, got[r], ref[r], p.Disasm())
			}
		}
	}
}

// TestDifferentialBranches runs random short branchy programs against a
// reference that interprets block-by-block, exercising Br/Jmp semantics
// and the fallthrough rule.
func TestDifferentialBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	conds := []isa.Cond{isa.Eq, isa.Ne, isa.Lt, isa.Le, isa.Gt, isa.Ge}

	for round := 0; round < 200; round++ {
		// Build a program of nBlocks straight-line blocks; each block
		// adds a distinct constant to r8, then branches conditionally
		// *forward* (guaranteeing termination) or falls through; the
		// last block halts.
		nBlocks := 4 + rng.Intn(5)
		type blockSpec struct {
			add    int64
			cmp    isa.Cond
			rs1    isa.Reg
			rs2    isa.Reg
			target int
		}
		specs := make([]blockSpec, nBlocks)
		for i := range specs {
			specs[i] = blockSpec{
				add:    int64(rng.Intn(1000)),
				cmp:    conds[rng.Intn(len(conds))],
				rs1:    isa.Reg(9 + rng.Intn(2)),
				rs2:    isa.Reg(9 + rng.Intn(2)),
				target: i + 1 + rng.Intn(nBlocks-i), // forward, possibly past the end? clamp below
			}
			if specs[i].target >= nBlocks {
				specs[i].target = nBlocks - 1
			}
		}

		b := prog.NewBuilder("branchy")
		b.Func("main", "b.c")
		r9init, r10init := int64(rng.Intn(5)), int64(rng.Intn(5))
		b.MovI(9, r9init)
		b.MovI(10, r10init)
		b.MovI(8, 0)
		b.StartBlock()
		for i, sp := range specs {
			if i > 0 {
				b.StartBlock()
			}
			b.AddI(8, 8, sp.add)
			if i < nBlocks-1 {
				b.Br(sp.cmp, sp.rs1, sp.rs2, sp.target+1) // +1: block 0 is the preamble
			}
		}
		b.Halt()
		p := b.MustProgram()

		// Reference walk over the same specs.
		var refSum int64
		regs := map[isa.Reg]int64{9: r9init, 10: r10init}
		blk := 0
		for {
			sp := specs[blk]
			refSum += sp.add
			if blk == nBlocks-1 {
				break
			}
			if sp.cmp.Eval(regs[sp.rs1], regs[sp.rs2]) {
				blk = sp.target
			} else {
				blk++
			}
		}

		m, err := NewMachine(p, testCacheConfig(), 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := m.Threads[0].Regs[8]; got != refSum {
			t.Fatalf("round %d: r8 = %d, reference %d\n%s", round, got, refSum, p.Disasm())
		}
	}
}
