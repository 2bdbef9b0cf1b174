package tables

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
	"repro/structslim"
)

func testOpt() Options {
	return Options{Scale: workloads.ScaleTest, SamplePeriod: 3000, Seed: 2}
}

// results is computed once; several shape tests read it.
var cachedResults []*BenchResult

func paperResults(t *testing.T) []*BenchResult {
	t.Helper()
	if cachedResults == nil {
		rs, err := NewEngine(testOpt()).RunPaperBenchmarks()
		if err != nil {
			t.Fatal(err)
		}
		cachedResults = rs
	}
	return cachedResults
}

func TestTable3Shape(t *testing.T) {
	results := paperResults(t)
	if len(results) != 7 {
		t.Fatalf("rows = %d", len(results))
	}
	byName := map[string]*BenchResult{}
	var avg float64
	for _, r := range results {
		byName[r.Workload.Name()] = r
		avg += r.Speedup
		// Every benchmark must win from the split, as in the paper.
		if r.Speedup <= 1.0 {
			t.Errorf("%s: speedup %.3f ≤ 1", r.Workload.Name(), r.Speedup)
		}
		if r.OverheadPct <= 0 || r.OverheadPct > 45 {
			t.Errorf("%s: overhead %.2f%% implausible", r.Workload.Name(), r.OverheadPct)
		}
	}
	avg /= 7
	if avg < 1.10 {
		t.Errorf("average speedup %.3f, want ≥ 1.10 (paper: 1.18)", avg)
	}
	// Shape: ART and NN are the big winners; MSER is the smallest.
	for _, big := range []string{"art", "nn"} {
		if byName[big].Speedup < byName["mser"].Speedup {
			t.Errorf("%s (%.3f) should beat mser (%.3f)", big, byName[big].Speedup, byName["mser"].Speedup)
		}
	}
	minSeq := byName["mser"].Speedup
	for _, r := range results {
		if r.Speedup < minSeq {
			minSeq = r.Speedup
		}
	}
	if byName["mser"].Speedup > 1.35 {
		t.Errorf("mser speedup %.3f too large for a 21%%-of-latency structure", byName["mser"].Speedup)
	}

	// Parallel benchmarks pay more profiling overhead than sequential
	// ones (paper: CLOMP 16.1%, Health 18.3% vs 2-5%).
	seqAvg := (byName["art"].OverheadPct + byName["libquantum"].OverheadPct +
		byName["tsp"].OverheadPct + byName["mser"].OverheadPct) / 4
	for _, par := range []string{"clomp", "health"} {
		if byName[par].OverheadPct <= seqAvg {
			t.Errorf("%s overhead %.2f%% should exceed sequential average %.2f%%",
				par, byName[par].OverheadPct, seqAvg)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	results := paperResults(t)
	for _, r := range results {
		name := r.Workload.Name()
		if red := r.MissReduction("L1"); red <= 0 {
			t.Errorf("%s: L1 miss reduction %.1f%% not positive", name, red)
		}
		if red := r.MissReduction("L2"); red <= 0 {
			t.Errorf("%s: L2 miss reduction %.1f%% not positive", name, red)
		}
	}
	// NN's L1 reduction is the paper's largest (87.2%); it must be near
	// the top here too.
	var nnRed, maxRed float64
	for _, r := range results {
		red := r.MissReduction("L1")
		if r.Workload.Name() == "nn" {
			nnRed = red
		}
		if red > maxRed {
			maxRed = red
		}
	}
	if nnRed < maxRed*0.7 {
		t.Errorf("nn L1 reduction %.1f%% should be near the top (max %.1f%%)", nnRed, maxRed)
	}
}

func TestRenderTable1(t *testing.T) {
	var buf bytes.Buffer
	WriteTable1(&buf)
	out := buf.String()
	for _, want := range []string{"Table 1", "PEBS-LL", "IBS", "Itanium", "POWER5", "pebs-ll", "ibs"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	// Exactly the two latency-capable facilities are modeled.
	if strings.Count(out, " yes ") != 2 {
		t.Errorf("latency-capable rows != 2:\n%s", out)
	}
}

func TestRenderTables(t *testing.T) {
	results := paperResults(t)
	var buf bytes.Buffer
	WriteTable2(&buf)
	WriteTable3(&buf, results)
	WriteTable4(&buf, results)
	out := buf.String()
	for _, want := range []string{"Table 2", "Table 3", "Table 4", "art", "average", "CORAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q", want)
		}
	}
}

func TestTable5And6AndFigure6(t *testing.T) {
	sr, err := NewEngine(testOpt()).AnalyzeART()
	if err != nil {
		t.Fatal(err)
	}

	// Table 5 shape: P dominates; R is never sampled.
	share := map[string]float64{}
	for _, f := range sr.Fields {
		share[f.Name] = 100 * f.Share
	}
	if share["P"] < 45 || share["P"] > 90 {
		t.Errorf("P share = %.1f%%, want dominant (paper 73.3%%)", share["P"])
	}
	// R is only ever written during initialization; at the paper's sparse
	// period it is never captured at all, and even at the denser test
	// period it must stay negligible.
	if share["R"] > 1.0 {
		t.Errorf("R share = %.1f%%, want ≈0 (paper: not captured)", share["R"])
	}
	for _, f := range []string{"I", "U", "X", "Q"} {
		if share[f] <= 0 {
			t.Errorf("field %s has no latency", f)
		}
		if share[f] > share["P"] {
			t.Errorf("field %s (%.1f%%) outweighs P", f, share[f])
		}
	}

	// Table 6 shape: the hottest loop is 615-616 accessing only P.
	var hottest string
	var hottestFields string
	for _, lr := range sr.Loops {
		if lr.Loop != nil {
			hottest = lr.Name
			hottestFields = strings.Join(lr.FieldNames, ",")
			break // Loops are sorted by latency
		}
	}
	if !strings.Contains(hottest, "615") {
		t.Errorf("hottest loop = %s, want scanner.c:615-616", hottest)
	}
	if hottestFields != "P" {
		t.Errorf("hottest loop fields = %s, want P", hottestFields)
	}

	// Figure 6 shape: the called-out affinities.
	offOf := map[string]uint64{}
	for _, f := range sr.Fields {
		offOf[f.Name] = f.Offset
	}
	if a := sr.Affinity.Affinity(offOf["I"], offOf["U"]); a < 0.6 {
		t.Errorf("A(I,U) = %.2f, want high (paper 0.86)", a)
	}
	if a := sr.Affinity.Affinity(offOf["P"], offOf["U"]); a > 0.2 {
		t.Errorf("A(P,U) = %.2f, want low (paper 0.05)", a)
	}
	if a := sr.Affinity.Affinity(offOf["X"], offOf["Q"]); a < 0.9 {
		t.Errorf("A(X,Q) = %.2f, want ≈1", a)
	}

	var buf bytes.Buffer
	WriteTable5(&buf, sr)
	WriteTable6(&buf, sr)
	WriteFigure6(&buf, sr)
	out := buf.String()
	for _, want := range []string{"Table 5", "Table 6", "615", "graph affinity", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered ART experiments missing %q", want)
		}
	}
}

func TestSplitFigures(t *testing.T) {
	eng := NewEngine(testOpt())
	for fig := 7; fig <= 13; fig++ {
		var buf bytes.Buffer
		if err := eng.SplitFigure(&buf, FigureNumberFor[fig]); err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		out := buf.String()
		if !strings.Contains(out, "struct") || !strings.Contains(out, "speedup") {
			t.Errorf("figure %d output incomplete:\n%s", fig, out)
		}
	}
}

func TestSuiteOverheadFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweeps are slow")
	}
	// The overhead figures use the paper's sampling period; the denser
	// test period would inflate the multithreaded kernels' overheads.
	figOpt := testOpt()
	figOpt.SamplePeriod = 10_000
	for _, suite := range []string{workloads.RodiniaSuite, workloads.SpecSuite} {
		points, err := NewEngine(figOpt).SuiteOverheads(suite)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 15 {
			t.Fatalf("%s: %d points, want 15", suite, len(points))
		}
		var sum float64
		for _, pt := range points {
			if pt.OverheadPct <= 0 || pt.OverheadPct > 40 {
				t.Errorf("%s/%s: overhead %.2f%% implausible", suite, pt.Name, pt.OverheadPct)
			}
			if pt.Samples == 0 {
				t.Errorf("%s/%s: no samples", suite, pt.Name)
			}
			sum += pt.OverheadPct
		}
		avg := sum / float64(len(points))
		if avg > 25 {
			t.Errorf("%s: average overhead %.2f%% far above the paper's band", suite, avg)
		}
		var buf bytes.Buffer
		WriteOverheadFigure(&buf, suite, points, 8.2)
		if !strings.Contains(buf.String(), "average") {
			t.Error("figure rendering incomplete")
		}
	}
}

func TestPeriodRobustness(t *testing.T) {
	// ART's advice must survive from dense to the paper's 10k sampling;
	// overhead must fall monotonically with the period.
	rows, err := NewEngine(testOpt()).PeriodRobustness("art",
		[]uint64{1000, 3000, 10_000}, "P", "P")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.SizeOK {
			t.Errorf("period %d: size inference failed", r.Period)
		}
		if !r.AdviceOK {
			t.Errorf("period %d: advice degraded", r.Period)
		}
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].OverheadPct >= rows[i-1].OverheadPct {
			t.Errorf("overhead not decreasing: %v then %v",
				rows[i-1].OverheadPct, rows[i].OverheadPct)
		}
		if rows[i].Samples >= rows[i-1].Samples {
			t.Errorf("samples not decreasing with period")
		}
	}
	var buf bytes.Buffer
	WriteRobustness(&buf, "art", rows)
	if !strings.Contains(buf.String(), "robustness") {
		t.Error("robustness rendering incomplete")
	}
}

func TestBaselineComparison(t *testing.T) {
	rows, err := NewEngine(testOpt()).BaselineComparison("art")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	sampling, counting, reuse := rows[0], rows[1], rows[2]
	if sampling.Slowdown > 1.15 {
		t.Errorf("sampling slowdown = %.3f×, want near 1", sampling.Slowdown)
	}
	if counting.Slowdown < 1.5 {
		t.Errorf("counting slowdown = %.2f×, want multiples", counting.Slowdown)
	}
	if reuse.Slowdown < 20 {
		t.Errorf("reuse slowdown = %.1f×, want dramatic", reuse.Slowdown)
	}
	if reuse.Slowdown <= counting.Slowdown || counting.Slowdown <= sampling.Slowdown {
		t.Error("slowdown ordering wrong")
	}
	// Sampled field shares must track the exact ones closely.
	if sampling.MaxShareError <= 0 || sampling.MaxShareError > 0.1 {
		t.Errorf("sampling max share error = %.3f, want small but nonzero", sampling.MaxShareError)
	}
	var buf bytes.Buffer
	WriteBaselines(&buf, "art", rows)
	if !strings.Contains(buf.String(), "reuse-distance") {
		t.Error("baselines rendering incomplete")
	}
}

func TestAccuracyExperiment(t *testing.T) {
	rows := AccuracyExperiment(10000, 800, 9)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.K >= 10 && (r.Simulated < 0.98 || r.Corrected < 0.98) {
			t.Errorf("k=%d: accuracy sim %.3f corrected %.3f, want ≥ 0.98", r.K, r.Simulated, r.Corrected)
		}
		if r.K >= 4 {
			if d := r.Simulated - r.Corrected; d > 0.06 || d < -0.06 {
				t.Errorf("k=%d: simulation %.3f deviates from corrected model %.3f", r.K, r.Simulated, r.Corrected)
			}
		}
	}
	var buf bytes.Buffer
	WriteAccuracy(&buf, rows)
	if !strings.Contains(buf.String(), "Equation 4") {
		t.Error("accuracy rendering incomplete")
	}
}

// TestSeedNamesOneSampleSet: the experiments engine profiles at the seed
// it is given, so its report on a workload is the one structslim prints
// for the same seed and options.
func TestSeedNamesOneSampleSet(t *testing.T) {
	w, err := workloads.Get("art")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewEngine(Options{Scale: workloads.ScaleTest, SamplePeriod: 3000, Seed: 7}).RunBenchmark(w)
	if err != nil {
		t.Fatal(err)
	}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := structslim.ProfileAndAnalyze(p, phases, structslim.Options{
		SamplePeriod: 3000, Seed: 7, Analysis: core.Options{TopK: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	r.Report.RenderText(&got)
	rep.RenderText(&want)
	if got.String() != want.String() {
		t.Errorf("engine report at seed 7 differs from structslim's:\n%s\nwant:\n%s", got.String(), want.String())
	}
}
