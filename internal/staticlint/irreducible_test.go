package staticlint

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// rawBlock assembles hand-shaped CFGs the Builder cannot express, so the
// tests can construct irreducible regions. Each block holds the given
// body instructions plus one terminator.
type rawBlock struct {
	body   []isa.Instr
	term   string // "fall", "br", "jmp", "halt"
	target int
}

func rawProgram(t *testing.T, blocks []rawBlock) *prog.Program {
	t.Helper()
	f := &prog.Func{ID: 0, Name: "f", File: "f.c"}
	for i, rb := range blocks {
		blk := &prog.Block{ID: i}
		blk.Instrs = append(blk.Instrs, rb.body...)
		switch rb.term {
		case "fall":
			blk.Instrs = append(blk.Instrs, isa.Instr{Op: isa.Nop})
		case "br":
			blk.Instrs = append(blk.Instrs, isa.Instr{Op: isa.Br, Cmp: isa.Lt, Rs1: 1, Rs2: 2, Target: rb.target})
		case "jmp":
			blk.Instrs = append(blk.Instrs, isa.Instr{Op: isa.Jmp, Target: rb.target})
		case "halt":
			blk.Instrs = append(blk.Instrs, isa.Instr{Op: isa.Halt})
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

// TestIrreducibleDemotion: the same constant-address load inside a cycle
// is an exact prediction when the cycle is a reducible natural loop, but
// must demote to unresolved when the cycle is irreducible — the loop has
// no unique header, so "per-iteration advance" is not well defined.
func TestIrreducibleDemotion(t *testing.T) {
	load := isa.Instr{Op: isa.Load, Rd: 8, Rs1: isa.RZ, Rs2: isa.RZ, Size: 8, Disp: 64}
	cases := []struct {
		name   string
		blocks []rawBlock
		want   Confidence
		reason string
	}{
		{
			// 0 → 1 (header); 1: load, br→3 | fall→2; 2 → 1 back edge.
			name: "reducible",
			blocks: []rawBlock{
				{term: "jmp", target: 1},
				{body: []isa.Instr{load}, term: "br", target: 3},
				{term: "jmp", target: 1},
				{term: "halt"},
			},
			want: Exact,
		},
		{
			// Classic irreducible region: 0 branches into both 1 and 2;
			// 1 ⇄ 2 form the cycle; the load sits inside it.
			name: "irreducible",
			blocks: []rawBlock{
				{term: "br", target: 2},
				{body: []isa.Instr{load}, term: "br", target: 3},
				{term: "jmp", target: 1},
				{term: "halt"},
			},
			want:   Unresolved,
			reason: "inside an irreducible loop",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := rawProgram(t, tc.blocks)
			a, err := AnalyzeProgram(p)
			if err != nil {
				t.Fatalf("AnalyzeProgram: %v", err)
			}
			if len(a.Streams) != 1 {
				t.Fatalf("streams = %d, want 1", len(a.Streams))
			}
			sp := a.Streams[0]
			if sp.Confidence != tc.want {
				t.Errorf("confidence = %v (%s), want %v", sp.Confidence, sp.Reason, tc.want)
			}
			if tc.reason != "" && sp.Reason != tc.reason {
				t.Errorf("reason = %q, want %q", sp.Reason, tc.reason)
			}
			if sp.Loop == nil {
				t.Error("stream not attributed to a loop")
			} else if sp.Loop.Irreducible != (tc.want == Unresolved) {
				t.Errorf("LoopInfo.Irreducible = %v", sp.Loop.Irreducible)
			}
		})
	}
}

// TestEntryBlockLoopHeader: a loop headed by the function's entry block
// joins the function-entry state into its header state, like a loop
// behind a preheader. r9 is unknown on entry and 4096 on the back edge,
// so the load through it is not statically linear in either shape.
func TestEntryBlockLoopHeader(t *testing.T) {
	body := []isa.Instr{
		{Op: isa.Load, Rd: 8, Rs1: 9, Rs2: isa.RZ, Size: 8},
		{Op: isa.MovI, Rd: 9, Imm: 4096},
	}
	for _, tc := range []struct {
		name   string
		blocks []rawBlock
	}{
		{"entry-header", []rawBlock{{body: body, term: "br", target: 0}, {term: "halt"}}},
		{"preheader", []rawBlock{{term: "fall"}, {body: body, term: "br", target: 1}, {term: "halt"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := AnalyzeProgram(rawProgram(t, tc.blocks))
			if err != nil {
				t.Fatalf("AnalyzeProgram: %v", err)
			}
			if len(a.Streams) != 1 {
				t.Fatalf("streams = %d, want 1", len(a.Streams))
			}
			sp := a.Streams[0]
			if sp.Confidence != Unresolved || sp.Reason != "address not statically linear" {
				t.Errorf("load = %v (%q, stride %d, disp %d), want unresolved: address not statically linear",
					sp.Confidence, sp.Reason, sp.Stride, sp.Disp)
			}
		})
	}
}

// TestUnreachableBlockDoesNotJoin: an unreachable block's state never
// reaches a successor. Block 1 has no predecessor; were its r9 = 99
// joined into the loop, r9 would not be one constant there and the load
// through it would not be exact.
func TestUnreachableBlockDoesNotJoin(t *testing.T) {
	a, err := AnalyzeProgram(rawProgram(t, []rawBlock{
		{body: []isa.Instr{{Op: isa.MovI, Rd: 9, Imm: 4096}}, term: "jmp", target: 2},
		{body: []isa.Instr{{Op: isa.MovI, Rd: 9, Imm: 99}}, term: "jmp", target: 2},
		{body: []isa.Instr{{Op: isa.Load, Rd: 8, Rs1: 9, Rs2: isa.RZ, Size: 8}}, term: "br", target: 2},
		{term: "halt"},
	}))
	if err != nil {
		t.Fatalf("AnalyzeProgram: %v", err)
	}
	if len(a.Streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(a.Streams))
	}
	if sp := a.Streams[0]; sp.Confidence != Exact || sp.Stride != 0 || sp.Disp != 4096 {
		t.Errorf("load = %v (%q, stride %d, disp %d), want exact, stride 0, disp 4096",
			sp.Confidence, sp.Reason, sp.Stride, sp.Disp)
	}
}
