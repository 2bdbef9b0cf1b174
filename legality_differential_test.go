package repro_test

// End-to-end acceptance gate for the transform-legality pass: on every
// paper workload the pass's verdicts must survive a full dynamic replay
// (zero cross-check violations) AND must not block the splits the paper
// applies by hand — the profiler's advice, gated through the legality
// summary, must still produce a split layout. The planted-illegal
// fixture (workload "escape") must go the other way: its profile looks
// like a textbook splitting candidate, yet Optimize must refuse because
// a field address escapes into an opaque register flow.

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/legality"
	"repro/internal/prog"
	"repro/internal/split"
	"repro/internal/workloads"
	"repro/structslim"
)

func legalityOptions() structslim.Options {
	return structslim.Options{SamplePeriod: 2_000, Seed: 1}
}

// TestLegalityGatePaperWorkloads is the hard gate from the issue: for
// all seven paper benchmarks, the static verdicts are dynamically
// cross-checked violation-free, the hot record is not frozen, and the
// profiler's splitting advice passes the legality-gated Optimize path.
func TestLegalityGatePaperWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full profile+replay sweep")
	}
	for _, w := range workloads.Paper() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			p, phases, err := w.Build(nil, workloads.ScaleTest)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, rep, err := structslim.ProfileAndAnalyze(p, phases, legalityOptions())
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			_ = res
			la, err := structslim.AttachLegality(rep, p)
			if err != nil {
				t.Fatalf("AttachLegality: %v", err)
			}

			// Dynamic soundness: replay under the checking observer.
			crep, err := legality.CrossCheck(la, cache.DefaultConfig(), phases)
			if err != nil {
				t.Fatalf("CrossCheck: %v", err)
			}
			if crep.Failed() {
				var buf bytes.Buffer
				crep.RenderText(&buf)
				t.Fatalf("cross-check violations:\n%s", buf.String())
			}

			// Usefulness: the advice must still be applicable.
			sr := structslim.FindStruct(rep, w.Record().Name)
			if sr == nil {
				t.Fatalf("profiler did not analyze %s", w.Record().Name)
			}
			if sr.Legality == nil {
				t.Fatalf("no legality summary attached to %s", sr.Name)
			}
			if sr.Legality.Frozen() {
				t.Fatalf("hot record %s frozen: %s", sr.Name, sr.Legality.Reason)
			}
			layout, err := structslim.Optimize(w.Record(), sr)
			if err != nil {
				t.Fatalf("legality-gated Optimize refused the paper's split: %v", err)
			}
			if layout == nil {
				t.Fatal("nil layout")
			}
		})
	}
}

// TestLegalityGateRejectsEscapeFixture plants the illegal-split fixture
// into the same pipeline: the profile recommends splitting packet, but
// the legality pass must freeze it and Optimize must refuse, while the
// chk_pair spanning access downgrades to a keep-together merge rather
// than a refusal.
func TestLegalityGateRejectsEscapeFixture(t *testing.T) {
	w, err := workloads.Get("escape")
	if err != nil {
		t.Fatalf("escape fixture not registered: %v", err)
	}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, rep, err := structslim.ProfileAndAnalyze(p, phases, legalityOptions())
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	_ = res
	la, err := structslim.AttachLegality(rep, p)
	if err != nil {
		t.Fatalf("AttachLegality: %v", err)
	}

	sr := structslim.FindStruct(rep, w.Record().Name)
	if sr == nil {
		t.Fatal("profiler did not analyze packet")
	}
	if sr.Advice == nil || len(sr.Advice.Groups) < 2 {
		t.Fatalf("fixture profile did not produce splitting advice (advice=%v); the trap is not armed", sr.Advice)
	}
	if !sr.Legality.Frozen() {
		t.Fatalf("packet not frozen (legality=%+v)", sr.Legality)
	}
	if _, err := structslim.Optimize(w.Record(), sr); err == nil {
		t.Fatal("Optimize applied a split the legality pass proved unsafe")
	}

	// Without the verdict the same advice would have split it — that
	// asymmetry is the whole point of the gate.
	if _, err := split.LayoutFromAdvice(w.Record(), sr.Advice, nil); err != nil {
		t.Fatalf("the advice fails without a verdict too (%v): the fixture proves nothing", err)
	}

	// chk_pair: keep-together, not frozen — the merge path.
	chk := legality.SummaryFor(la, "chk", "chk_pair")
	if chk == nil {
		t.Fatal("no verdict for chk_pair")
	}
	if chk.Verdict != "keep-together" {
		t.Fatalf("chk_pair verdict = %s, want keep-together", chk.Verdict)
	}
	pairRec := prog.MustRecord("chk_pair",
		prog.Field{Name: "lo", Size: 4},
		prog.Field{Name: "hi", Size: 4},
	)
	pair, err := split.LayoutFromGroups(pairRec, [][]string{{"lo"}, {"hi"}}, chk)
	if err != nil {
		t.Fatalf("keep-together must merge, not refuse: %v", err)
	}
	if pair.IsSplit() {
		t.Fatalf("keep-together pair still split: %v", pair)
	}

	// Regrouping must skip the frozen array.
	rr, err := structslim.AnalyzeRegrouping(res, p, legalityOptions(), la)
	if err != nil {
		t.Fatalf("AnalyzeRegrouping: %v", err)
	}
	for _, g := range rr.Groups {
		for _, c := range g {
			if c.Name == "packets.packet" {
				t.Fatalf("frozen array advised for regrouping: %+v", g)
			}
		}
	}
	for _, c := range rr.Candidates {
		if c.Name == "packets.packet" {
			t.Fatalf("frozen array still a candidate: %+v", c)
		}
	}
}
