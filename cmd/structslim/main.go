// Command structslim profiles one workload on the simulated machine and
// prints StructSlim's analysis: the hot-data ranking, per-field and
// per-loop latency tables, field affinities, and structure-splitting
// advice. With -optimize it also applies the advice and reports the
// resulting speedup and cache-miss changes.
//
// Usage:
//
//	structslim -workload art [-scale bench] [-period 10000] [-dot out.dot]
//	structslim -list
//
// The vet subcommand runs the static stride & layout analyzer instead:
// it predicts each loop's access streams from the IR alone, lints the
// registered struct layouts, and cross-checks the predictions against
// the dynamic profiler:
//
//	structslim vet -workload quickstart
//	structslim vet -all [-static-only]
//
// The serve and push subcommands run the streaming profile service: serve
// hosts the online analyzer behind an HTTP ingest API, push profiles a
// workload locally and replays its sample stream to a server:
//
//	structslim serve -workload art -addr 127.0.0.1:7080
//	structslim push -workload art -addr 127.0.0.1:7080 -selftest
//
// The optimize subcommand closes the loop: it enumerates legal candidate
// layouts from the analysis, measures every variant once on the exact
// machine, and prints the ranked table plus the fastest layout:
//
//	structslim optimize -workload art [-parallel 8] [-json out.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/structslim"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "vet":
			fail(runVet(os.Args[2:], os.Stdout))
			return
		case "serve":
			fail(runServe(os.Args[2:], os.Stdout))
			return
		case "push":
			fail(runPush(os.Args[2:], os.Stdout))
			return
		case "optimize":
			fail(runOptimize(os.Args[2:], os.Stdout))
			return
		}
	}
	fail(runProfile(os.Args[1:], os.Stdout))
}

// statWindow resolves the profile command's two statistical flags into
// the engine's one switch, vm.Config.StatWindow: -stat-window N > 0
// selects statistical mode at W=N, -statistical alone selects it at the
// default window, and neither profiles exactly.
func statWindow(statistical bool, window int) int {
	switch {
	case window > 0:
		return window
	case statistical:
		return vm.DefaultStatWindow
	}
	return 0
}

// runProfile is the default command: profile one workload and print the
// analysis.
func runProfile(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("structslim", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to profile (see -list)")
		list     = fs.Bool("list", false, "list available workloads")
		scale    = fs.String("scale", "test", "problem scale: test or bench")
		period   = fs.Uint64("period", 10_000, "address-sampling period in memory accesses")
		ibs      = fs.Bool("ibs", false, "sample with AMD-IBS semantics (period counts instructions)")
		seed     = fs.Uint64("seed", 1, "sampling randomization seed")
		topK     = fs.Int("topk", 3, "data structures to analyze in depth")
		thresh   = fs.Float64("affinity", 0.5, "affinity clustering threshold")
		dotPath  = fs.String("dot", "", "write the hot structure's affinity graph (Figure 6 style) to this file")
		jsonPath = fs.String("json", "", "write the analysis as JSON to this file (- for stdout)")
		optimize = fs.Bool("optimize", false, "apply the advice and measure the split program")
		doRegr   = fs.Bool("regroup", false, "also run the array-regrouping analysis (future-work extension)")
		profDir  = fs.String("profiles", "", "also write per-thread profiles into this directory, one file of binary frames per thread (profile.N.ssb)")
		analyze  = fs.String("analyze", "", "skip profiling: load per-thread profiles from this directory and analyze them offline")
		dump     = fs.Bool("dump", false, "print the workload's disassembly and recovered loop structure, then exit")
		cfgDot   = fs.String("cfg-dot", "", "write the named function's CFG as dot to this file (with -dump)")
		cfgFn    = fs.String("cfg-fn", "main", "function for -cfg-dot")
		stat     = fs.Bool("statistical", false, "statistical mode: fully simulate only sampled windows, fast-forward between them (prints an error report)")
		statWin  = fs.Int("stat-window", 0, "per-sample warmup window W in accesses; > 0 selects statistical mode (default W with -statistical alone)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		inPaper := make(map[string]bool)
		fmt.Fprintln(out, "Paper benchmarks (Table 2):")
		for _, w := range workloads.Paper() {
			inPaper[w.Name()] = true
			fmt.Fprintf(out, "  %-12s %-45s %s\n", w.Name(), w.Suite(), w.Description())
		}
		fmt.Fprintln(out, "Suite stand-ins (Figures 4/5):")
		for _, w := range workloads.All() {
			if w.Record() == nil {
				fmt.Fprintf(out, "  %-12s %-45s %s\n", w.Name(), w.Suite(), w.Description())
			}
		}
		fmt.Fprintln(out, "Other (case studies, fixtures):")
		for _, w := range workloads.All() {
			if w.Record() != nil && !inPaper[w.Name()] {
				fmt.Fprintf(out, "  %-12s %-45s %s\n", w.Name(), w.Suite(), w.Description())
			}
		}
		return nil
	}
	if *name == "" {
		return fmt.Errorf("need -workload (or -list)")
	}

	w, err := workloads.Get(*name)
	if err != nil {
		return err
	}
	sc, err := workloads.ParseScale(*scale)
	if err != nil {
		return err
	}
	opt := structslim.Options{
		SamplePeriod: *period,
		IBS:          *ibs,
		Seed:         *seed,
		VM:           vm.Config{StatWindow: statWindow(*stat, *statWin)},
		Analysis:     core.Options{TopK: *topK, AffinityThreshold: *thresh},
	}

	p, phases, err := w.Build(nil, sc)
	if err != nil {
		return err
	}

	if *dump {
		fmt.Fprint(out, p.Disasm())
		loops, err := cfg.AnalyzeLoops(p)
		if err != nil {
			return err
		}
		cfg.WriteLoopReport(out, p, loops)
		if *cfgDot != "" {
			fn := p.FuncByName(*cfgFn)
			if fn == nil {
				return fmt.Errorf("no function %q", *cfgFn)
			}
			f, err := os.Create(*cfgDot)
			if err != nil {
				return err
			}
			cfg.WriteDot(f, fn, loops.Forests[fn.ID])
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "Wrote CFG of %s to %s\n", *cfgFn, *cfgDot)
		}
		return nil
	}

	var res *structslim.RunResult
	var rep *core.Report
	if *analyze != "" {
		// Offline path: the profiles were collected earlier (one frame
		// file per thread); merge them with the reduction tree and
		// analyze against the rebuilt binary.
		tps, err := profile.ReadDir(*analyze)
		if err != nil {
			return err
		}
		merged, err := profile.ReduceThreadProfiles(tps, 0)
		if err != nil {
			return err
		}
		res = &structslim.RunResult{Profile: merged, ThreadProfiles: tps}
		if rep, err = core.Analyze(merged, p, opt.Analysis); err != nil {
			return err
		}
		fmt.Fprintf(out, "Analyzed %d thread profiles from %s (offline)\n\n", len(tps), *analyze)
	} else if res, rep, err = structslim.ProfileAndAnalyze(p, phases, opt); err != nil {
		return err
	}

	rep.RenderText(out)
	if *analyze != "" {
		// The files hold no instruction count, and their app cycles are
		// each thread's own, not the run's wall clock.
		fmt.Fprintf(out, "Profile: %d memory accesses, %d app cycles (max over threads), overhead %.2f%%\n",
			res.Profile.MemOps, res.Profile.AppCycles, res.Profile.OverheadPct())
	} else {
		fmt.Fprintf(out, "Run: %d instructions, %d memory accesses, %d app cycles, overhead %.2f%%\n",
			res.Stats.Instrs, res.Stats.MemOps, res.Stats.AppWallCycles, res.Stats.OverheadPct())
	}
	if res.Stat != nil {
		fmt.Fprintln(out)
		res.Stat.RenderText(out)
	}

	if *profDir != "" {
		if err := profile.WriteDir(*profDir, res.ThreadProfiles); err != nil {
			return err
		}
		fmt.Fprintf(out, "Wrote %d thread profiles to %s\n", len(res.ThreadProfiles), *profDir)
	}

	if *jsonPath != "" {
		if err := writeOutput(*jsonPath, out, rep.WriteJSON); err != nil {
			return err
		}
	}

	if *dotPath != "" && len(rep.Structures) > 0 {
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		rep.Structures[0].WriteDot(f)
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "Wrote affinity graph to %s\n", *dotPath)
	}

	if *doRegr {
		la, err := structslim.AttachLegality(rep, p)
		if err != nil {
			return err
		}
		rr, err := structslim.AnalyzeRegrouping(res, p, opt, la)
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		rr.RenderText(out)
	}

	if *optimize {
		return applyAdvice(out, w, sc, rep, opt)
	}
	return nil
}

// applyAdvice builds the hot record's layout from the printed report's
// advice, times the original and the split program without the
// profiler, and prints the speedup and per-level miss reductions.
func applyAdvice(out io.Writer, w workloads.Workload, sc workloads.Scale, rep *core.Report, opt structslim.Options) error {
	rec := w.Record()
	if rec == nil {
		return fmt.Errorf("workload %s has no record to optimize", w.Name())
	}
	sr := structslim.FindStruct(rep, rec.Name)
	if sr == nil {
		return fmt.Errorf("%s: hot record %s not identified", w.Name(), rec.Name)
	}
	layout, err := structslim.Optimize(rec, sr)
	if err != nil {
		return err
	}
	var st [2]vm.Stats
	for i, l := range []*prog.PhysLayout{nil, layout} {
		p, phases, err := w.Build(l, sc)
		if err != nil {
			return err
		}
		if st[i], err = structslim.Run(p, phases, opt); err != nil {
			return err
		}
	}
	orig, split := st[0].AppWallCycles, st[1].AppWallCycles
	fmt.Fprintf(out, "\nOptimization (advice applied automatically):\n")
	fmt.Fprintf(out, "  layout: %v\n", layout)
	fmt.Fprintf(out, "  cycles: %d → %d  (speedup %.2fx)\n", orig, split, float64(orig)/float64(split))
	for _, lvl := range []string{"L1", "L2", "L3"} {
		o, s := st[0].Cache.Level(lvl).Misses, st[1].Cache.Level(lvl).Misses
		reduction := 0.0
		if o != 0 {
			reduction = 100 * (float64(o) - float64(s)) / float64(o)
		}
		fmt.Fprintf(out, "  %s miss reduction: %.1f%%\n", lvl, reduction)
	}
	return nil
}

// writeOutput hands write the command's own output when path is "-" and
// a new file at path otherwise. When write succeeds it returns the
// file's Close error, so a file that failed to close is not reported as
// written.
func writeOutput(path string, out io.Writer, write func(io.Writer) error) (err error) {
	if path == "-" {
		return write(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "structslim:", err)
		os.Exit(1)
	}
}
