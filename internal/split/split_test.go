package split

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prog"
)

func rec(t *testing.T) *prog.RecordSpec {
	t.Helper()
	return prog.MustRecord("r",
		prog.Field{Name: "a", Size: 8},
		prog.Field{Name: "b", Size: 8},
		prog.Field{Name: "c", Size: 8},
		prog.Field{Name: "d", Size: 8},
	)
}

func TestLayoutFromGroupsCompletesColdFields(t *testing.T) {
	l, err := LayoutFromGroups(rec(t), [][]string{{"a", "c"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// a,c grouped; b and d become singletons.
	if l.NumArrays() != 3 {
		t.Fatalf("arrays = %d, want 3 (%v)", l.NumArrays(), l)
	}
	if l.Place("a").Arr != l.Place("c").Arr {
		t.Error("a and c not together")
	}
	if l.Place("b").Arr == l.Place("a").Arr || l.Place("b").Arr == l.Place("d").Arr {
		t.Error("cold fields not singled out")
	}
}

func TestLayoutFromGroupsValidation(t *testing.T) {
	if _, err := LayoutFromGroups(rec(t), [][]string{{"a", "zz"}}, nil); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LayoutFromGroups(rec(t), [][]string{{"a"}, {"a", "b"}}, nil); err == nil {
		t.Error("duplicate field accepted")
	}
	// Empty groups are dropped silently.
	l, err := LayoutFromGroups(rec(t), [][]string{{}, {"a", "b", "c", "d"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.IsSplit() {
		t.Error("single full group should be the identity layout")
	}
}

func TestLayoutFromAdvice(t *testing.T) {
	adv := &core.SplitAdvice{
		StructName: "r",
		Groups:     [][]string{{"a", "c"}, {"b"}},
	}
	l, err := LayoutFromAdvice(rec(t), adv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumArrays() != 3 { // {a,c} {b} {d-completed}
		t.Errorf("arrays = %d (%v)", l.NumArrays(), l)
	}
}

func TestLayoutFromGroupsCheckedNilSummary(t *testing.T) {
	// No legality analysis lays out the groups as a split-safe verdict
	// does: neither merges nor refuses anything.
	safe := &core.LegalitySummary{Verdict: "split-safe"}
	for _, groups := range [][][]string{{{"a", "c"}}, {{"a"}, {"b"}, {"c"}, {"d"}}, {{"d", "a"}, {"b"}}} {
		l, err := LayoutFromGroups(rec(t), groups, nil)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := LayoutFromGroups(rec(t), groups, safe)
		if err != nil {
			t.Fatal(err)
		}
		if Key(l) != Key(ls) {
			t.Errorf("groups %v: nil summary gives %s, split-safe gives %s", groups, Key(l), Key(ls))
		}
	}
	if _, err := LayoutFromGroups(rec(t), [][]string{{"a", "zz"}}, safe); err == nil {
		t.Error("unknown field accepted under a split-safe verdict")
	}
}

func TestLayoutFromGroupsCheckedFrozen(t *testing.T) {
	lg := &core.LegalitySummary{Verdict: "frozen", Reason: "pointer passes through xor (at x.c:3)"}
	_, err := LayoutFromGroups(rec(t), [][]string{{"a", "c"}}, lg)
	if err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("frozen structure split anyway: %v", err)
	}
	if !strings.Contains(err.Error(), "xor") {
		t.Errorf("error does not carry the reason: %v", err)
	}
	if _, err := LayoutFromAdvice(rec(t),
		&core.SplitAdvice{StructName: "r", Groups: [][]string{{"a"}, {"b"}}}, lg); err == nil {
		t.Error("frozen structure split via advice path")
	}
}

func TestLayoutFromGroupsCheckedMergesPairs(t *testing.T) {
	// The advice separates a|c from b, but legality demands {a,b} and
	// {c,d} stay together: the three groups collapse into one (a,c,b via
	// the pair a-b, then d via c-d).
	lg := &core.LegalitySummary{
		Verdict: "keep-together",
		Pairs:   [][2]string{{"a", "b"}, {"c", "d"}},
	}
	l, err := LayoutFromGroups(rec(t), [][]string{{"a", "c"}, {"b"}}, lg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Place("a").Arr != l.Place("b").Arr {
		t.Errorf("pair {a,b} separated: %v", l)
	}
	if l.Place("c").Arr != l.Place("d").Arr {
		t.Errorf("pair {c,d} separated (d was a cold singleton): %v", l)
	}
	if l.Place("a").Arr != l.Place("c").Arr {
		t.Errorf("advice group {a,c} broken by the merge: %v", l)
	}

	// A pair between two otherwise-independent groups merges just those.
	lg = &core.LegalitySummary{Verdict: "keep-together", Pairs: [][2]string{{"b", "d"}}}
	l, err = LayoutFromGroups(rec(t), [][]string{{"a"}, {"b"}, {"c"}}, lg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Place("b").Arr != l.Place("d").Arr {
		t.Errorf("pair {b,d} separated: %v", l)
	}
	if l.Place("a").Arr == l.Place("b").Arr || l.Place("a").Arr == l.Place("c").Arr {
		t.Errorf("unconstrained groups merged needlessly: %v", l)
	}
	if _, err := LayoutFromGroups(rec(t), [][]string{{"a"}},
		&core.LegalitySummary{Verdict: "keep-together", Pairs: [][2]string{{"a", "zz"}}}); err == nil {
		t.Error("pair naming an unknown field accepted")
	}
}

func TestLayoutFromGroupsCheckedAllFields(t *testing.T) {
	lg := &core.LegalitySummary{Verdict: "keep-together", AllFields: true}
	l, err := LayoutFromGroups(rec(t), [][]string{{"a"}, {"b"}, {"c"}, {"d"}}, lg)
	if err != nil {
		t.Fatal(err)
	}
	if l.IsSplit() {
		t.Errorf("all-fields constraint still split the record: %v", l)
	}
}

func TestLayoutFromAdviceRejectsUnresolvedOffsets(t *testing.T) {
	adv := &core.SplitAdvice{
		StructName: "r",
		Groups:     [][]string{{"a", "+24"}},
	}
	if _, err := LayoutFromAdvice(rec(t), adv, nil); err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Errorf("positional advice accepted: %v", err)
	}
	if _, err := LayoutFromAdvice(rec(t), nil, nil); err == nil {
		t.Error("nil advice accepted")
	}
}
