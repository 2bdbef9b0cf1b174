package structslim_test

// Determinism of the rendered analysis: one profile, analyzed twice, must
// produce byte-identical text and JSON reports. Loop identifiers are the
// main hazard — LoopInfo output is canonically ordered by (FnID, LoopID) —
// but the test guards every map-ordering dependency in the report path.

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/tables"
	"repro/internal/workloads"
	"repro/structslim"
)

func TestReportRenderingDeterministic(t *testing.T) {
	w, err := workloads.Get("art")
	if err != nil {
		t.Fatal(err)
	}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := structslim.ProfileRun(p, phases, structslim.Options{SamplePeriod: 500, Seed: 7})
	if err != nil {
		t.Fatalf("ProfileRun: %v", err)
	}

	render := func() (string, string) {
		rep, err := core.Analyze(res.Profile, p, core.Options{TopK: 3, MinLd: 0.01, AffinityThreshold: 0.5})
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		var text, js bytes.Buffer
		rep.RenderText(&text)
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return text.String(), js.String()
	}

	t1, j1 := render()
	for run := 0; run < 3; run++ {
		t2, j2 := render()
		if t1 != t2 {
			t.Fatalf("RenderText differs between analyses of the same profile (run %d)", run+1)
		}
		if j1 != j2 {
			t.Fatalf("WriteJSON differs between analyses of the same profile (run %d)", run+1)
		}
	}
}

// TestParallelEngineDeterministic: the experiment engine must render
// Table 3 and the Figure 6 affinity dot byte-identically whether its
// simulations run sequentially or on four workers — worker scheduling
// and result-cache hits must never leak into the output.
func TestParallelEngineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full table pipelines")
	}
	regen := func(parallel int) string {
		opt := tables.Options{
			Scale:        workloads.ScaleTest,
			SamplePeriod: 3000,
			Seed:         7,
			Parallel:     parallel,
		}
		eng := tables.NewEngine(opt)
		results, err := eng.RunPaperBenchmarks()
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var buf bytes.Buffer
		tables.WriteTable3(&buf, results)
		sr, err := eng.AnalyzeART()
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		tables.WriteFigure6(&buf, sr)
		return buf.String()
	}

	seq := regen(1)
	par := regen(4)
	if seq != par {
		t.Fatalf("engine output differs between sequential and 4-worker runs:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}
