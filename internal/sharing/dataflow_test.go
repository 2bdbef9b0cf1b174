package sharing

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// TestUnreachableBlockDoesNotJoin: an unreachable block's state never
// reaches a successor. Block 1 has no predecessor; were its r9 = 99
// joined into block 2, the load's address would be ⊤, not 4096.
func TestUnreachableBlockDoesNotJoin(t *testing.T) {
	f := &prog.Func{ID: 0, Name: "f", File: "f.c", Blocks: []*prog.Block{
		{ID: 0, Instrs: []isa.Instr{{Op: isa.MovI, Rd: 9, Imm: 4096}, {Op: isa.Jmp, Target: 2}}},
		{ID: 1, Instrs: []isa.Instr{{Op: isa.MovI, Rd: 9, Imm: 99}, {Op: isa.Jmp, Target: 2}}},
		{ID: 2, Instrs: []isa.Instr{{Op: isa.Load, Rd: 8, Rs1: 9, Rs2: isa.RZ, Size: 8}, {Op: isa.Halt}}},
	}}
	p := &prog.Program{Name: "raw", Funcs: []*prog.Func{f}}
	if err := p.Finalize(); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	ff, ok := solveFn(p, f, calleeEntry())
	if !ok {
		t.Fatal("flow did not converge")
	}
	facts := ff.streamFacts()
	if len(facts) != 1 {
		t.Fatalf("facts = %d, want 1", len(facts))
	}
	if got := facts[0].ea; got != avConst(4096) {
		t.Errorf("load address = %+v, want the constant 4096", got)
	}
}
