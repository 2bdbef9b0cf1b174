package tables

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/stride"
	"repro/internal/workloads"
	"repro/structslim"
)

// WriteTable5 prints ART's per-field latency shares, paper vs measured.
func WriteTable5(w io.Writer, sr *core.StructReport) {
	fmt.Fprintf(w, "Table 5: f1_neuron per-field latency share (measured, paper)\n")
	share := make(map[string]float64)
	for _, f := range sr.Fields {
		share[f.Name] += 100 * f.Share
	}
	for _, name := range []string{"I", "W", "X", "V", "U", "P", "Q", "R"} {
		fmt.Fprintf(w, "  %-3s %6.1f%%  (%5.1f%%)\n", name, share[name], PaperTable5[name])
	}
}

// WriteTable6 prints ART's per-loop latency table, paper rows alongside.
func WriteTable6(w io.Writer, sr *core.StructReport) {
	fmt.Fprintf(w, "Table 6: f1_neuron latency per loop (measured)\n")
	fmt.Fprintf(w, "  %-22s %-10s %s\n", "loop", "latency%", "fields")
	for _, lr := range sr.Loops {
		if lr.Loop == nil {
			continue
		}
		fmt.Fprintf(w, "  %-22s %6.2f%%    %s\n", lr.Name, 100*lr.Share, strings.Join(lr.FieldNames, ","))
	}
	fmt.Fprintf(w, "  -- paper --\n")
	for _, row := range PaperTable6 {
		fmt.Fprintf(w, "  %-22s %6.2f%%    %s\n", "scanner.c:"+row.Lines, row.Share, row.Fields)
	}
}

// WriteFigure6 prints ART's affinity graph as dot, with the paper's
// called-out values in a trailing comment.
func WriteFigure6(w io.Writer, sr *core.StructReport) {
	sr.WriteDot(w)
	fmt.Fprintf(w, "// paper: A(I,U)=0.86  A(P,U)=0.05  A(X,Q)=high\n")
}

// OverheadPoint is one bar of Figures 4/5.
type OverheadPoint struct {
	Name        string
	OverheadPct float64
	Samples     uint64
	MemOps      uint64
}

func sortOverheads(out []OverheadPoint) {
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
}

// WriteOverheadFigure prints one overhead figure as a text bar chart.
func WriteOverheadFigure(w io.Writer, title string, points []OverheadPoint, paperAvg float64) {
	fmt.Fprintf(w, "%s (profiling overhead per benchmark)\n", title)
	var sum float64
	for _, pt := range points {
		bar := strings.Repeat("#", int(pt.OverheadPct*2+0.5))
		fmt.Fprintf(w, "  %-14s %6.2f%% %s\n", pt.Name, pt.OverheadPct, bar)
		sum += pt.OverheadPct
	}
	fmt.Fprintf(w, "  %-14s %6.2f%%  (paper average: %.1f%%)\n", "average", sum/float64(len(points)), paperAvg)
}

// FigureNumberFor maps the paper's figure numbers 7–13 to benchmarks.
var FigureNumberFor = map[int]string{
	7:  "art",
	8:  "libquantum",
	9:  "tsp",
	10: "mser",
	11: "clomp",
	12: "health",
	13: "nn",
}

// RobustnessRow is one row of the sampling-period robustness experiment:
// does the advice survive sparser sampling, and what does it cost?
type RobustnessRow struct {
	Period      uint64
	Samples     uint64
	OverheadPct float64
	// SizeOK: the inferred structure size matches debug info.
	SizeOK bool
	// AdviceOK: the hot group of the advice matches the expected set.
	AdviceOK bool
}

// fillRobustness judges one period's analysis outcome: did the size
// inference and the advised grouping survive the sparser sampling?
func fillRobustness(row *RobustnessRow, rep *core.Report, w workloads.Workload, hotField, wantGroup string) {
	sr := structslim.FindStruct(rep, w.Record().Name)
	if sr == nil {
		return
	}
	row.SizeOK = sr.TrueSize > 0 && sr.InferredSize > 0 &&
		sr.InferredSize%uint64(sr.TrueSize) == 0
	if !row.SizeOK && sr.InferredSize >= uint64(sr.TrueSize) && sr.InferredSize%16 == 0 {
		row.SizeOK = true // heap-padded multiple (e.g. TSP's 64 for 56)
	}
	if sr.Advice != nil {
		for _, g := range sr.Advice.Groups {
			for _, f := range g {
				if f == hotField {
					sorted := append([]string(nil), g...)
					sort.Strings(sorted)
					row.AdviceOK = strings.Join(sorted, ",") == wantGroup
				}
			}
		}
	}
}

// WriteRobustness prints the period sweep.
func WriteRobustness(w io.Writer, name string, rows []RobustnessRow) {
	fmt.Fprintf(w, "Sampling-period robustness (%s): advice quality vs overhead\n", name)
	fmt.Fprintf(w, "  %-10s %-9s %-10s %-7s %s\n", "period", "samples", "overhead", "size", "advice")
	for _, r := range rows {
		ok := func(b bool) string {
			if b {
				return "ok"
			}
			return "WRONG"
		}
		fmt.Fprintf(w, "  %-10d %-9d %7.2f%%   %-7s %s\n",
			r.Period, r.Samples, r.OverheadPct, ok(r.SizeOK), ok(r.AdviceOK))
	}
}

func indentLines(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// AccuracyRow is one row of the Equation 4 validation experiment.
type AccuracyRow struct {
	K          int
	PaperBound float64 // Equation 4 as printed
	Corrected  float64 // residue-class-corrected model
	Simulated  float64 // Monte Carlo
}

// AccuracyExperiment validates Equation 4: for each k it evaluates the
// printed bound, the corrected analytic model, and a Monte-Carlo
// simulation of the GCD algorithm.
func AccuracyExperiment(n, trials int, seed uint64) []AccuracyRow {
	var rows []AccuracyRow
	for _, k := range []int{2, 3, 4, 5, 6, 8, 10, 12, 15, 20} {
		rows = append(rows, AccuracyRow{
			K:          k,
			PaperBound: stride.AccuracyLowerBound(k),
			Corrected:  stride.AccuracyCorrected(k),
			Simulated:  stride.SimulateAccuracy(n, k, trials, 16, seed),
		})
	}
	return rows
}

// WriteAccuracy prints the Equation 4 validation table.
func WriteAccuracy(w io.Writer, rows []AccuracyRow) {
	fmt.Fprintf(w, "Equation 4: GCD stride-recovery accuracy vs samples per stream\n")
	fmt.Fprintf(w, "  %-4s %-14s %-16s %s\n", "k", "paper bound", "corrected model", "simulated")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-4d %12.4f %16.4f %11.4f\n", r.K, r.PaperBound, r.Corrected, r.Simulated)
	}
	fmt.Fprintf(w, "  (the printed bound undercounts failures by ~p per prime; see internal/stride)\n")
}
