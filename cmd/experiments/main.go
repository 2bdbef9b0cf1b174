// Command experiments regenerates the paper's evaluation artifacts
// (Tables 2–6, Figures 4–13, and the Equation 4 accuracy study) against
// the simulated machine, printing measured values next to the published
// ones.
//
// Usage:
//
//	experiments -all [-scale bench]
//	experiments -table 3
//	experiments -figure 6
//	experiments -accuracy
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/tables"
	"repro/internal/workloads"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		table    = flag.Int("table", 0, "regenerate one table (1-6)")
		figure   = flag.Int("figure", 0, "regenerate one figure (4-13)")
		accuracy = flag.Bool("accuracy", false, "run the Equation 4 accuracy study")
		robust   = flag.Bool("robustness", false, "run the sampling-period robustness sweep on ART")
		statErr  = flag.Bool("staterror", false, "run the statistical-mode fidelity sweep (advice error vs window W)")
		baseline = flag.Bool("baselines", false, "compare sampling against instrumentation baselines on ART")
		cases    = flag.Bool("casestudies", false, "run the beyond-paper case studies (mcf, streamcluster)")
		optim    = flag.Bool("optimize", false, "run the measured A/B layout selection on art, tsp, and health")
		scale    = flag.String("scale", "test", "problem scale: test or bench")
		period   = flag.Uint64("period", 10_000, "address-sampling period")
		seed     = flag.Uint64("seed", 1, "sampling randomization seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent simulations (output is byte-identical at any value)")
	)
	flag.Parse()
	sc, err := workloads.ParseScale(*scale)
	fail(err)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		fail(err)
		fail(pprof.StartCPUProfile(f))
	}
	memProfile = *memProf

	opt := tables.Options{Scale: sc, SamplePeriod: *period, Seed: *seed, Parallel: *parallel}
	out := os.Stdout

	// One engine for the whole invocation: artifacts that re-run the same
	// simulation (Tables 3/4 vs Figures 7–13, ART's tables vs Figure 6)
	// share results through its keyed cache.
	eng := tables.NewEngine(opt)

	// The Table 3/4 runs are shared.
	var results []*tables.BenchResult
	needBench := *all || *table == 3 || *table == 4
	if needBench {
		var err error
		results, err = eng.RunPaperBenchmarks()
		fail(err)
	}
	needART := *all || *table == 5 || *table == 6 || *figure == 6

	if *all || *table == 1 {
		tables.WriteTable1(out)
		fmt.Fprintln(out)
	}
	if *all || *table == 2 {
		tables.WriteTable2(out)
		fmt.Fprintln(out)
	}
	if *all || *table == 3 {
		tables.WriteTable3(out, results)
		fmt.Fprintln(out)
	}
	if *all || *table == 4 {
		tables.WriteTable4(out, results)
		fmt.Fprintln(out)
	}
	if needART {
		sr, err := eng.AnalyzeART()
		fail(err)
		if *all || *table == 5 {
			tables.WriteTable5(out, sr)
			fmt.Fprintln(out)
		}
		if *all || *table == 6 {
			tables.WriteTable6(out, sr)
			fmt.Fprintln(out)
		}
		if *all || *figure == 6 {
			fmt.Fprintln(out, "Figure 6: f1_neuron affinity graph (dot)")
			tables.WriteFigure6(out, sr)
			fmt.Fprintln(out)
		}
	}
	if *all || *figure == 4 {
		points, err := eng.SuiteOverheads(workloads.RodiniaSuite)
		fail(err)
		tables.WriteOverheadFigure(out, "Figure 4: Rodinia", points, tables.PaperRodiniaAvgOverheadPct)
		fmt.Fprintln(out)
	}
	if *all || *figure == 5 {
		points, err := eng.SuiteOverheads(workloads.SpecSuite)
		fail(err)
		tables.WriteOverheadFigure(out, "Figure 5: SPEC CPU 2006", points, tables.PaperSpecAvgOverheadPct)
		fmt.Fprintln(out)
	}
	for fig := 7; fig <= 13; fig++ {
		if *all || *figure == fig {
			fmt.Fprintf(out, "Figure %d: ", fig)
			fail(eng.SplitFigure(out, tables.FigureNumberFor[fig]))
			fmt.Fprintln(out)
		}
	}
	if *all || *accuracy {
		rows := tables.AccuracyExperiment(10000, 2000, *seed)
		tables.WriteAccuracy(out, rows)
		fmt.Fprintln(out)
	}
	if *all || *robust {
		rows, err := eng.PeriodRobustness("art",
			[]uint64{1000, 3000, 10_000, 30_000, 100_000}, "P", "P")
		fail(err)
		tables.WriteRobustness(out, "art", rows)
		fmt.Fprintln(out)
	}
	if *all || *statErr {
		rows, err := eng.StatErrorSweep([]int{32, 64, 128, 256})
		fail(err)
		tables.WriteStatError(out, rows)
		fmt.Fprintln(out)
	}
	if *all || *baseline {
		rows, err := eng.BaselineComparison("art")
		fail(err)
		tables.WriteBaselines(out, "art", rows)
		fmt.Fprintln(out)
	}
	if *all || *cases {
		fail(eng.CaseStudies(out))
	}
	if *all || *optim {
		results, err := tables.RankedGroupings(opt, []string{"art", "tsp", "health"})
		fail(err)
		tables.WriteRankedGroupings(out, results)
		fmt.Fprintln(out)
	}

	if !*all && *table == 0 && *figure == 0 && !*accuracy && !*robust && !*statErr && !*baseline && !*cases && !*optim {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "nothing to do: pass -all, -table N, -figure N, or -accuracy")
		os.Exit(2)
	}
	stopProfiles()
}

// memProfile is the -memprofile path; stopProfiles writes it (and stops
// the CPU profile) on every exit path, including fail().
var memProfile string

func stopProfiles() {
	pprof.StopCPUProfile()
	if memProfile == "" {
		return
	}
	f, err := os.Create(memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date heap statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
}

func fail(err error) {
	if err != nil {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
