package cfg

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// rawFunc assembles a function from (terminator, target) pairs so tests
// can build arbitrary — including irreducible — CFG shapes. Each block
// gets one Nop, its body, then the terminator; term "fall" means no
// terminator (fallthrough), "br" a conditional branch, "jmp"
// unconditional, "halt" ends.
type rawBlock struct {
	term   string
	target int
	body   []isa.Instr
}

func rawProgram(t *testing.T, blocks []rawBlock) *prog.Program {
	t.Helper()
	f := &prog.Func{ID: 0, Name: "f", File: "f.c"}
	for i, rb := range blocks {
		blk := &prog.Block{ID: i}
		blk.Instrs = append(blk.Instrs, isa.Instr{Op: isa.Nop, Line: int32(10 * (i + 1))})
		blk.Instrs = append(blk.Instrs, rb.body...)
		switch rb.term {
		case "fall":
			// Validity: only legal for non-last blocks; tests ensure that.
			blk.Instrs = append(blk.Instrs, isa.Instr{Op: isa.Nop, Line: int32(10*(i+1) + 1)})
		case "br":
			blk.Instrs = append(blk.Instrs, isa.Instr{Op: isa.Br, Cmp: isa.Lt, Rs1: 1, Rs2: 2, Target: rb.target, Line: int32(10*(i+1) + 1)})
		case "jmp":
			blk.Instrs = append(blk.Instrs, isa.Instr{Op: isa.Jmp, Target: rb.target, Line: int32(10*(i+1) + 1)})
		case "halt":
			blk.Instrs = append(blk.Instrs, isa.Instr{Op: isa.Halt, Line: int32(10*(i+1) + 1)})
		default:
			t.Fatalf("bad term %q", rb.term)
		}
		f.Blocks = append(f.Blocks, blk)
	}
	p := &prog.Program{Name: "raw", Funcs: []*prog.Func{f}}
	if err := p.Finalize(); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	return p
}

func TestBuildEdges(t *testing.T) {
	// b0: br→2 | fall→1; b1: jmp→3; b2: fall→3; b3: halt
	p := rawProgram(t, []rawBlock{
		{term: "br", target: 2},
		{term: "jmp", target: 3},
		{term: "fall"},
		{term: "halt"},
	})
	g := Build(p.Funcs[0])
	wantSuccs := [][]int{{2, 1}, {3}, {3}, nil}
	for i, want := range wantSuccs {
		if len(g.Succs[i]) != len(want) {
			t.Fatalf("succs(%d) = %v, want %v", i, g.Succs[i], want)
		}
		for j := range want {
			if g.Succs[i][j] != want[j] {
				t.Fatalf("succs(%d) = %v, want %v", i, g.Succs[i], want)
			}
		}
	}
	if len(g.Preds[3]) != 2 {
		t.Errorf("preds(3) = %v", g.Preds[3])
	}
}

func TestDominatorsDiamond(t *testing.T) {
	// Diamond: 0 → {1,2} → 3.
	p := rawProgram(t, []rawBlock{
		{term: "br", target: 2},
		{term: "jmp", target: 3},
		{term: "fall"},
		{term: "halt"},
	})
	g := Build(p.Funcs[0])
	idom := g.Dominators()
	if idom[0] != 0 || idom[1] != 0 || idom[2] != 0 || idom[3] != 0 {
		t.Errorf("idom = %v, want all 0", idom)
	}
	if !Dominates(idom, 0, 3) || Dominates(idom, 1, 3) {
		t.Error("Dominates wrong on diamond")
	}
}

func TestDominatorsChainAndUnreachable(t *testing.T) {
	// 0→1→3; block 2 unreachable.
	p := rawProgram(t, []rawBlock{
		{term: "jmp", target: 1},
		{term: "jmp", target: 3},
		{term: "fall"},
		{term: "halt"},
	})
	g := Build(p.Funcs[0])
	idom := g.Dominators()
	if idom[2] != -1 {
		t.Errorf("unreachable block has idom %d", idom[2])
	}
	if idom[3] != 1 || idom[1] != 0 {
		t.Errorf("idom = %v", idom)
	}
	if Dominates(idom, 0, 2) {
		t.Error("claims to dominate unreachable block")
	}
}

func TestFindLoopsSimple(t *testing.T) {
	// 0 → 1 (header); 1 → {2 (body), 3 (exit)}; 2 → 1.
	p := rawProgram(t, []rawBlock{
		{term: "jmp", target: 1},
		{term: "br", target: 3}, // exit branch, falls into 2
		{term: "jmp", target: 1},
		{term: "halt"},
	})
	forest := FindLoops(Build(p.Funcs[0]))
	if len(forest.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(forest.Loops))
	}
	l := forest.Loops[0]
	if l.Header != 1 || l.Irreducible || l.Depth != 1 {
		t.Errorf("loop = %+v", l)
	}
	wantMembers := map[int]bool{1: true, 2: true}
	if len(l.Blocks) != 2 {
		t.Errorf("blocks = %v", l.Blocks)
	}
	for _, b := range l.Blocks {
		if !wantMembers[b] {
			t.Errorf("unexpected member %d", b)
		}
	}
	if forest.InnermostOf[0] != -1 || forest.InnermostOf[3] != -1 {
		t.Error("non-loop blocks attributed to a loop")
	}
	if forest.InnermostOf[1] != l.ID || forest.InnermostOf[2] != l.ID {
		t.Error("loop blocks not attributed")
	}
}

func TestFindLoopsNested(t *testing.T) {
	// 0→1; 1(outer hdr) → {2, 5}; 2(inner hdr) → {3, 4}; 3 → 2; 4 → 1; 5 halt.
	p := rawProgram(t, []rawBlock{
		{term: "jmp", target: 1},
		{term: "br", target: 5},
		{term: "br", target: 4},
		{term: "jmp", target: 2},
		{term: "jmp", target: 1},
		{term: "halt"},
	})
	forest := FindLoops(Build(p.Funcs[0]))
	if len(forest.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(forest.Loops))
	}
	var inner, outer *Loop
	for _, l := range forest.Loops {
		switch l.Header {
		case 1:
			outer = l
		case 2:
			inner = l
		}
	}
	if outer == nil || inner == nil {
		t.Fatalf("headers wrong: %+v", forest.Loops)
	}
	if inner.Parent != outer.ID {
		t.Errorf("inner.Parent = %d, want %d", inner.Parent, outer.ID)
	}
	if outer.Depth != 1 || inner.Depth != 2 {
		t.Errorf("depths = %d, %d", outer.Depth, inner.Depth)
	}
	// Inner blocks are attributed to the inner loop, and transitively to
	// the outer one.
	if forest.InnermostOf[3] != inner.ID {
		t.Errorf("block 3 innermost = %d", forest.InnermostOf[3])
	}
	if forest.InnermostOf[4] != outer.ID {
		t.Errorf("block 4 innermost = %d", forest.InnermostOf[4])
	}
	found := false
	for _, b := range outer.Blocks {
		if b == 3 {
			found = true
		}
	}
	if !found {
		t.Error("outer loop does not transitively contain inner body")
	}
}

func TestFindLoopsSelfLoop(t *testing.T) {
	// 0 → 1; 1 → {1, 2}; 2 halt.
	p := rawProgram(t, []rawBlock{
		{term: "jmp", target: 1},
		{term: "br", target: 1},
		{term: "halt"},
	})
	forest := FindLoops(Build(p.Funcs[0]))
	if len(forest.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(forest.Loops))
	}
	if !forest.Loops[0].SelfLoop || forest.Loops[0].Header != 1 {
		t.Errorf("self loop not detected: %+v", forest.Loops[0])
	}
	if forest.InnermostOf[1] != 0 {
		t.Error("self-loop header not attributed to its loop")
	}
}

func TestFindLoopsIrreducible(t *testing.T) {
	// Classic irreducible region: 0 branches to both 1 and 2; 1 → 2; 2 → 1;
	// 1 → 3 exit. Two entries into the {1,2} cycle.
	p := rawProgram(t, []rawBlock{
		{term: "br", target: 2}, // 0 → 2 or fall → 1
		{term: "br", target: 3}, // 1 → 3 or fall → 2
		{term: "jmp", target: 1},
		{term: "halt"},
	})
	forest := FindLoops(Build(p.Funcs[0]))
	if len(forest.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(forest.Loops))
	}
	if !forest.Loops[0].Irreducible {
		t.Errorf("irreducible region not flagged: %+v", forest.Loops[0])
	}
}

func TestFindLoopsSequential(t *testing.T) {
	// Two independent loops in sequence.
	p := rawProgram(t, []rawBlock{
		{term: "jmp", target: 1}, // 0
		{term: "br", target: 3},  // 1: hdr A (exit→3, fall→2)
		{term: "jmp", target: 1}, // 2: latch A
		{term: "br", target: 5},  // 3: hdr B (exit→5, fall→4)
		{term: "jmp", target: 3}, // 4: latch B
		{term: "halt"},           // 5
	})
	forest := FindLoops(Build(p.Funcs[0]))
	if len(forest.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(forest.Loops))
	}
	for _, l := range forest.Loops {
		if l.Parent != -1 || l.Depth != 1 {
			t.Errorf("sequential loop nested: %+v", l)
		}
	}
}

// TestAnalyzeLoopsOnBuilderProgram runs the whole pipeline on a program
// written with the structured builder: nested ForRange loops must be
// rediscovered purely from the binary, with correct line intervals.
func TestAnalyzeLoopsOnBuilderProgram(t *testing.T) {
	b := prog.NewBuilder("nest")
	g := b.Global("arr", 64*64*8, -1)
	b.Func("main", "nest.c")
	base, i, j, v := b.R(), b.R(), b.R(), b.R()
	b.GAddr(base, g)
	b.AtLine(100)
	var loadIP *uint64
	b.ForRange(i, 0, 64, 1, func() {
		b.AtLine(101)
		b.ForRange(j, 0, 64, 1, func() {
			b.AtLine(102)
			idx := b.R()
			b.MulI(idx, i, 64)
			b.Add(idx, idx, j)
			b.Load(v, base, idx, 8, 0, 8)
			b.Release(idx)
		})
		b.AtLine(103)
	})
	b.AtLine(110)
	b.Halt()
	p := b.MustProgram()

	pl, err := AnalyzeLoops(p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumLoops() != 2 {
		t.Fatalf("loops = %d, want 2", pl.NumLoops())
	}

	// Find the load instruction's IP.
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			for k := range blk.Instrs {
				if blk.Instrs[k].Op == isa.Load {
					ip := blk.Instrs[k].IP
					loadIP = &ip
				}
			}
		}
	}
	if loadIP == nil {
		t.Fatal("no load found")
	}
	li := pl.LoopOfIP(*loadIP)
	if li == nil {
		t.Fatal("load not attributed to a loop")
	}
	if li.Depth != 2 {
		t.Errorf("load loop depth = %d, want 2 (inner)", li.Depth)
	}
	if k := pl.LoopKeyOfIP(*loadIP); k != li.Key {
		t.Errorf("LoopKeyOfIP = %#x, want the loop's key %#x", k, li.Key)
	}
	if li.LineLo > 102 || li.LineHi < 102 {
		t.Errorf("inner loop lines = %d-%d, want to cover 102", li.LineLo, li.LineHi)
	}
	if li.Name() == "" || li.File != "nest.c" {
		t.Errorf("loop name = %q file = %q", li.Name(), li.File)
	}

	// The halt is outside all loops.
	var haltIP uint64
	for _, blk := range p.Funcs[0].Blocks {
		for k := range blk.Instrs {
			if blk.Instrs[k].Op == isa.Halt {
				haltIP = blk.Instrs[k].IP
			}
		}
	}
	if pl.LoopOfIP(haltIP) != nil {
		t.Error("halt attributed to a loop")
	}
	if pl.LoopOfIP(0) != nil || pl.LoopOfIP(^uint64(0)) != nil {
		t.Error("bogus IPs attributed")
	}
	if pl.LoopKeyOfIP(haltIP) != 0 || pl.LoopKeyOfIP(0) != 0 || pl.LoopKeyOfIP(^uint64(0)) != 0 {
		t.Error("LoopKeyOfIP keys an instruction outside every loop")
	}

	// AllLoops is stable and sorted by (FnID, LoopID).
	all := pl.AllLoops()
	if len(all) != 2 {
		t.Fatalf("AllLoops = %d entries, want 2", len(all))
	}
	if all[0].FnID > all[1].FnID ||
		(all[0].FnID == all[1].FnID && all[0].LoopID >= all[1].LoopID) {
		t.Error("AllLoops not sorted by (FnID, LoopID)")
	}
	if pl.Info(all[0].Key) != all[0] {
		t.Error("Info lookup broken")
	}
}

// TestWhileLoopDiscovered: WhileNZ pointer-chase loops are found too.
func TestWhileLoopDiscovered(t *testing.T) {
	b := prog.NewBuilder("chase")
	b.Func("main", "c.c")
	preg := b.R()
	b.MovI(preg, 0)
	b.AtLine(50)
	b.WhileNZ(preg, func() {
		b.Load(preg, preg, isa.RZ, 1, 0, 8)
	})
	b.Halt()
	p := b.MustProgram()
	pl, err := AnalyzeLoops(p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumLoops() != 1 {
		t.Fatalf("loops = %d, want 1", pl.NumLoops())
	}
}

func TestAnalyzeLoopsRequiresFinalized(t *testing.T) {
	p := &prog.Program{Name: "x"}
	if _, err := AnalyzeLoops(p); err == nil {
		t.Error("unfinalized program accepted")
	}
}

func TestLoopInfoNameSingleLine(t *testing.T) {
	li := &LoopInfo{File: "a.c", LineLo: 96, LineHi: 96}
	if li.Name() != "a.c:96" {
		t.Errorf("Name = %q", li.Name())
	}
	li.LineHi = 98
	if li.Name() != "a.c:96-98" {
		t.Errorf("Name = %q", li.Name())
	}
}

func TestLoopKeyNeverZero(t *testing.T) {
	if LoopKey(0, 0) == 0 {
		t.Error("LoopKey(0,0) collides with the no-loop sentinel")
	}
}
