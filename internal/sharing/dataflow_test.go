package sharing

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/staticlint"
	"repro/internal/vm"
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
	accs, ok := staticlint.SolveAccesses(f, calleeEntry())
	if !ok {
		t.Fatal("flow did not converge")
	}
	if len(accs) != 1 {
		t.Fatalf("accesses = %d, want 1", len(accs))
	}
	if got, want := accs[0].Addr.String(), staticlint.ConstAddr(4096).String(); got != want {
		t.Errorf("load address = %s, want the constant %s", got, want)
	}
}

// analyzeRole builds a program whose worker is body, runs the worker as a
// four-thread role with the thread index in the first argument, and
// returns the sharing analysis and its one role.
func analyzeRole(t *testing.T, body func(b *prog.Builder)) (*Analysis, *Role) {
	t.Helper()
	b := prog.NewBuilder("role")
	worker := b.Func("worker", "role.c")
	body(b)
	b.Ret()
	main := b.Func("main", "role.c")
	b.Halt()
	b.SetEntry(main)
	p, err := b.Program()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	var phase []vm.ThreadSpec
	for i := int64(0); i < 4; i++ {
		phase = append(phase, vm.ThreadSpec{Fn: worker, Args: []int64{i}, Core: int(i)})
	}
	a, err := Analyze(p, [][]vm.ThreadSpec{phase}, 64)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(a.Roles) != 1 {
		t.Fatalf("roles = %d, want 1", len(a.Roles))
	}
	return a, a.Roles[0]
}

// TestMergedBasesWriteUnattributed: a store through the merge of &A and
// &B, indexed by the thread, has no one object to attribute it to.
func TestMergedBasesWriteUnattributed(t *testing.T) {
	a, role := analyzeRole(t, func(b *prog.Builder) {
		ga, gb := b.Global("A", 256, -1), b.Global("B", 256, -1)
		p0, x := b.R(), b.R()
		b.If(isa.Eq, isa.ArgReg0, isa.RZ, func() { b.GAddr(p0, ga) }, func() { b.GAddr(p0, gb) })
		b.Store(x, p0, isa.ArgReg0, 8, 0, 8)
	})
	if n := a.UnattributedWrites[role]; n != 1 || len(a.Claims) != 0 {
		t.Errorf("unattributed writes = %d, claims = %d; want 1 and 0", n, len(a.Claims))
	}
}

// TestAllocDifferenceNotAttributed: a role allocates inside a loop and
// adds the difference to the previous iteration's pointer to a global.
// The two pointers are different objects, so the difference is unknown
// and the store must not be attributed to the global.
func TestAllocDifferenceNotAttributed(t *testing.T) {
	a, role := analyzeRole(t, func(b *prog.Builder) {
		g := b.Global("G", 256, -1)
		base, sz, p0, prev, d, i, x := b.R(), b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
		b.GAddr(base, g)
		b.MovI(sz, 64)
		b.ForRange(i, 0, 4, 1, func() {
			b.Alloc(p0, sz, -1)
			b.Sub(d, p0, prev)
			b.Mov(prev, p0)
			b.Store(x, base, d, 1, 0, 8)
		})
	})
	if n := a.UnattributedWrites[role]; n != 1 || len(a.Claims) != 0 {
		t.Errorf("unattributed writes = %d, claims = %d; want 1 and 0", n, len(a.Claims))
	}
}
