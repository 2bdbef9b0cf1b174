package cfg

import (
	"testing"

	"repro/internal/isa"
)

// cval is a constant-propagation value: a known constant or unknown.
type cval struct {
	known bool
	c     int64
}

func constFlow() Flow[cval] {
	return Flow[cval]{
		Entry: make([]cval, isa.NumRegs),
		Join: func(a, b cval) cval {
			if a == b {
				return a
			}
			return cval{}
		},
		Equal: func(a, b cval) bool { return a == b },
		Transfer: func(in *isa.Instr, st []cval) {
			switch in.Op {
			case isa.MovI:
				st[in.Rd] = cval{known: true, c: in.Imm}
			case isa.AddI:
				if v := st[in.Rs1]; v.known {
					st[in.Rd] = cval{known: true, c: v.c + in.Imm}
				} else {
					st[in.Rd] = cval{}
				}
			}
		},
	}
}

// TestSolveLoopFixpoint: constant propagation over a counted loop. The
// counter is 0 on entry and 1 after the back edge, so it is unknown at
// the header and after it; the loop-invariant r9 stays 7 everywhere.
func TestSolveLoopFixpoint(t *testing.T) {
	p := rawProgram(t, []rawBlock{
		{term: "fall", body: []isa.Instr{{Op: isa.MovI, Rd: 8, Imm: 0}, {Op: isa.MovI, Rd: 9, Imm: 7}}},
		{term: "br", target: 3},
		{term: "jmp", target: 1, body: []isa.Instr{{Op: isa.AddI, Rd: 8, Rs1: 8, Imm: 1}}},
		{term: "halt"},
	})
	ins, ok := Solve(Build(p.Funcs[0]), constFlow())
	if !ok {
		t.Fatal("loop flow did not converge")
	}
	seven := cval{known: true, c: 7}
	for b := 1; b <= 3; b++ {
		if ins[b][8].known {
			t.Errorf("block %d: counter r8 = %d, want unknown", b, ins[b][8].c)
		}
		if ins[b][9] != seven {
			t.Errorf("block %d: r9 = %+v, want 7", b, ins[b][9])
		}
	}
	if ins[0][8].known || ins[0][9].known {
		t.Errorf("entry block in-state %v, want the entry state", ins[0][8:10])
	}
}

// TestSolveUnreachableBlocksNil: an unreachable block has a nil in-state
// and its out-state never reaches a successor — here it would redefine
// r9 on an edge into the exit block.
func TestSolveUnreachableBlocksNil(t *testing.T) {
	p := rawProgram(t, []rawBlock{
		{term: "jmp", target: 2, body: []isa.Instr{{Op: isa.MovI, Rd: 9, Imm: 7}}},
		{term: "jmp", target: 2, body: []isa.Instr{{Op: isa.MovI, Rd: 9, Imm: 99}}},
		{term: "halt"},
	})
	ins, ok := Solve(Build(p.Funcs[0]), constFlow())
	if !ok {
		t.Fatal("flow did not converge")
	}
	if ins[1] != nil {
		t.Errorf("unreachable block 1 in-state = %v, want nil", ins[1])
	}
	if want := (cval{known: true, c: 7}); ins[2][9] != want {
		t.Errorf("exit r9 = %+v, want 7 (the unreachable block must not join in)", ins[2][9])
	}
}

// TestSolveBudget: a flow whose join never stabilizes (a running
// maximum over a self-incrementing loop) stops after MaxSweeps sweeps and
// reports that it did not converge.
func TestSolveBudget(t *testing.T) {
	p := rawProgram(t, []rawBlock{
		{term: "fall"},
		{term: "br", target: 1, body: []isa.Instr{{Op: isa.AddI, Rd: 8, Rs1: 8, Imm: 1}}},
		{term: "halt"},
	})
	visits := 0
	ins, ok := Solve(Build(p.Funcs[0]), Flow[int64]{
		Entry: make([]int64, isa.NumRegs),
		Join:  func(a, b int64) int64 { return max(a, b) },
		Equal: func(a, b int64) bool { return a == b },
		Transfer: func(in *isa.Instr, st []int64) {
			if in.Op == isa.AddI {
				visits++
				st[in.Rd] = st[in.Rs1] + in.Imm
			}
		},
	})
	if ok {
		t.Fatal("a never-stabilizing flow reported convergence")
	}
	if visits != MaxSweeps {
		t.Errorf("loop body transferred %d times, want one per sweep (%d)", visits, MaxSweeps)
	}
	if got := ins[1][8]; got != MaxSweeps-1 {
		t.Errorf("header r8 after the last sweep = %d, want %d", got, MaxSweeps-1)
	}
}

// TestSolveRefineAtEntryHeader: when block 0 heads a loop, its joined
// in-state includes the function-entry state before Refine sees it, the
// restricted join keeps Entry while dropping the back edge, and a rewrite
// by Refine is what the block's transfer starts from.
func TestSolveRefineAtEntryHeader(t *testing.T) {
	// b0: r8 = 5; r12 = 2; br → 0 (self loop) | fall → 1; b1: halt. r8 is
	// unknown on entry and 5 on the back edge; r12 is 1 on entry.
	p := rawProgram(t, []rawBlock{
		{term: "br", target: 0, body: []isa.Instr{
			{Op: isa.AddI, Rd: 9, Rs1: 8, Imm: 1}, {Op: isa.MovI, Rd: 8, Imm: 5}, {Op: isa.MovI, Rd: 12, Imm: 2}}},
		{term: "halt"},
	})
	fl := constFlow()
	fl.Entry[12] = cval{known: true, c: 1}
	var seen []cval
	fl.Refine = func(b int, in []cval, joinFrom func(func(int) bool) []cval) {
		if b != 0 {
			if none := joinFrom(func(int) bool { return false }); none != nil {
				t.Errorf("block %d: join over no predecessor = %v, want nil", b, none)
			}
			return
		}
		outside := joinFrom(func(p int) bool { return p != 0 })
		if want := (cval{known: true, c: 1}); outside == nil || outside[12] != want {
			t.Errorf("block 0: join without the back edge = %v, want the entry state (r12 = 1)", outside)
		}
		seen = append(seen, in[8])
		in[10] = cval{known: true, c: 42}
	}
	ins, ok := Solve(Build(p.Funcs[0]), fl)
	if !ok {
		t.Fatal("flow did not converge")
	}
	for i, v := range seen {
		if v.known {
			t.Errorf("sweep %d: Refine saw r8 = %d at block 0, want unknown (entry joined)", i+1, v.c)
		}
	}
	if ins[0][12].known {
		t.Errorf("block 0 r12 = %d, want unknown (entry 1 joined with back edge 2)", ins[0][12].c)
	}
	if want := (cval{known: true, c: 42}); ins[0][10] != want || ins[1][10] != want {
		t.Errorf("Refine's rewrite lost: block 0 r10 = %+v, block 1 r10 = %+v", ins[0][10], ins[1][10])
	}
}
