package repro_test

// Differential and acceptance gates for the layout optimizer
// (internal/optimize): the ranked table must be byte-identical at any
// worker count; on every paper workload each candidate is measured on
// the exact machine, the selection is the fastest row, its decision
// matches the recorded digest, and no measured candidate breaks a
// legality keep-together pair; the geomean selected speedup holds its
// floor; and the planted-illegal fixture must come back frozen with the
// baseline selected.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/optimize"
	"repro/internal/workloads"
	"repro/structslim"
)

func optimizeOptions() optimize.Options {
	return optimize.Options{
		Scale:        workloads.ScaleTest,
		SamplePeriod: 2_000,
		Seed:         1,
		Parallel:     4,
	}
}

// TestOptimizeWorkerCountDeterminism renders the full ranked table at
// several worker counts; every byte must match.
func TestOptimizeWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run A/B sweep")
	}
	for _, name := range []string{"art", "mislaid"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for _, workers := range []int{1, 3, 8} {
				opt := optimizeOptions()
				opt.Parallel = workers
				res, err := optimize.Run(w, opt)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				var buf bytes.Buffer
				res.RenderText(&buf)
				if want == nil {
					want = buf.Bytes()
					continue
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("ranked table differs at workers=%d:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
						workers, want, workers, buf.Bytes())
				}
			}
		})
	}
}

// paperGeomeanFloor is the least geometric-mean speedup of the selected
// layouts over the seven paper workloads at optimizeOptions (measured:
// 1.52466543). The simulation is deterministic, so the floor sits just
// under the measured value.
const paperGeomeanFloor = 1.5246

// TestOptimizePaperWorkloads is the acceptance gate: on each of the
// seven paper benchmarks every ranked row must carry an exact
// measurement no faster than the selection, the decision (selected
// layout, baseline, selected and advice cycles) must match its recorded
// digest, and every measured candidate must respect the legality
// keep-together pairs. Over all seven the geomean selected speedup must
// stay at or above paperGeomeanFloor.
func TestOptimizePaperWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full A/B sweep over the paper benchmarks")
	}
	paper := workloads.Paper()
	var speedups []float64
	for _, w := range paper {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			r, err := optimize.Run(w, optimizeOptions())
			if err != nil {
				t.Fatal(err)
			}
			if r.ExactSelected == 0 || r.ExactBaseline == 0 {
				t.Fatalf("missing exact measurement (selected=%d baseline=%d)", r.ExactSelected, r.ExactBaseline)
			}
			// The selection is the fastest row, so it beats or ties the
			// baseline and the advice, which are rows too.
			for _, m := range r.Ranked {
				if m.ExactCycles == 0 || m.ExactCycles < r.ExactSelected {
					t.Errorf("row %s: %d exact cycles, selection %s takes %d",
						m.Label, m.ExactCycles, r.Selected.Layout, r.ExactSelected)
				}
			}
			goldenCheck(t, w.Name()+"/exact/decision", []byte(fmt.Sprintf("%s %d %d %d",
				r.Selected.Layout, r.ExactBaseline, r.ExactSelected, r.ExactAdvice)))

			// Zero legality violations: every measured candidate keeps the
			// keep-together pairs co-located.
			pairs, err := optimizePairs(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range r.Ranked {
				for _, pair := range pairs {
					if m.Layout.Place(pair[0]).Arr != m.Layout.Place(pair[1]).Arr {
						t.Errorf("candidate %s separates keep-together pair %s/%s: %s",
							m.Label, pair[0], pair[1], m.Layout)
					}
				}
			}
			speedups = append(speedups, r.ConfirmedSpeedup)
		})
	}
	if len(speedups) != len(paper) {
		return // a subtest failed before measuring its speedup
	}
	logSum := 0.0
	for _, s := range speedups {
		logSum += math.Log(s)
	}
	if g := math.Exp(logSum / float64(len(speedups))); g < paperGeomeanFloor {
		t.Errorf("geomean selected speedup %.8f below the floor %.4f", g, paperGeomeanFloor)
	}
}

// optimizePairs reruns the profiling pass to recover the hot record's
// legality keep-together pairs for the co-location check.
func optimizePairs(w workloads.Workload) ([][2]string, error) {
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		return nil, err
	}
	_, rep, err := structslim.ProfileAndAnalyze(p, phases, legalityOptions())
	if err != nil {
		return nil, err
	}
	if _, err := structslim.AttachLegality(rep, p); err != nil {
		return nil, err
	}
	sr := structslim.FindStruct(rep, w.Record().Name)
	if sr == nil || sr.Legality == nil {
		return nil, nil
	}
	return sr.Legality.Pairs, nil
}

// TestOptimizeFrozenFixture feeds the optimizer the escape fixture —
// a textbook splitting candidate whose field address escapes — and
// requires it to refuse: frozen reason reported, only the baseline
// measured, the original layout selected.
func TestOptimizeFrozenFixture(t *testing.T) {
	w, err := workloads.Get("escape")
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimize.Run(w, optimizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.FrozenReason == "" {
		t.Error("escape fixture was not frozen")
	}
	if len(res.Ranked) != 1 {
		t.Errorf("frozen record still enumerated %d candidates", len(res.Ranked)-1)
	}
	if res.Selected.Label != "baseline" || res.Selected.Layout.IsSplit() {
		t.Errorf("frozen record selected a split layout: %s (%s)", res.Selected.Layout, res.Selected.Label)
	}
	if res.ConfirmedSpeedup != 1.0 {
		t.Errorf("frozen record reports speedup %.3f, want 1.0", res.ConfirmedSpeedup)
	}
}

// TestOptimizeBeatsAdvice pins the reason the A/B loop exists: the
// paper's first-choice advice is legal but suboptimal, and the measured
// selection must strictly beat it. mislaid is the planted fixture; on
// mcf the full split beats the advice by about 2% at test scale.
func TestOptimizeBeatsAdvice(t *testing.T) {
	for _, name := range []string{"mislaid", "mcf"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := optimize.Run(w, optimizeOptions())
			if err != nil {
				t.Fatal(err)
			}
			if res.ExactAdvice == 0 {
				t.Fatal("no advice candidate was enumerated")
			}
			if res.ExactSelected >= res.ExactAdvice {
				t.Errorf("selection %s (%d cycles) does not beat the advice (%d cycles)",
					res.Selected.Layout, res.ExactSelected, res.ExactAdvice)
			}
			if res.Selected.Label == "advice" {
				t.Errorf("the advice itself was selected")
			}
		})
	}
}
