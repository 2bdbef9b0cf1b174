package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/legality"
	"repro/internal/prog"
	"repro/internal/sharing"
	"repro/internal/staticlint"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/structslim"
)

// runVet implements `structslim vet`: run the static stride & layout
// analyzer over a workload, lint its registered struct layouts, and —
// unless -static-only — profile the workload and cross-check every exact
// static prediction against the dynamic GCD recovery (Eqs. 2–6). With
// -sharing it additionally classifies per-field thread sharing, predicts
// false sharing, and validates the claims against the cache directory's
// coherence traffic. It returns an error when predictions contradict the
// dynamic side.
func runVet(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	var (
		name         = fs.String("workload", "", "workload to vet (see structslim -list)")
		all          = fs.Bool("all", false, "vet every registered workload")
		scale        = fs.String("scale", "test", "problem scale: test or bench")
		period       = fs.Uint64("period", 2_000, "address-sampling period for the cross-check")
		seed         = fs.Uint64("seed", 1, "sampling randomization seed")
		staticOnly   = fs.Bool("static-only", false, "skip profiling; report static predictions and lint only")
		withSharing  = fs.Bool("sharing", false, "also run the sharing & false-sharing analyzer with its coherence cross-check")
		withReuse    = fs.Bool("reuse", false, "also predict per-nest reuse-distance histograms & miss ratios statically and verify them against an instrumented run")
		withLegality = fs.Bool("legality", false, "also run the transform-legality (alias/escape) pass and replay the workload to cross-check its verdicts")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := workloads.ParseScale(*scale)
	if err != nil {
		return err
	}

	var targets []workloads.Workload
	switch {
	case *all:
		targets = workloads.All()
	case *name != "":
		w, err := workloads.Get(*name)
		if err != nil {
			return err
		}
		targets = []workloads.Workload{w}
	default:
		return fmt.Errorf("vet: need -workload or -all")
	}

	failed := 0
	for _, w := range targets {
		if len(targets) > 1 {
			fmt.Fprintf(out, "=== %s ===\n", w.Name())
		}
		ok, err := vetOne(w, sc, *period, *seed, *staticOnly, *withSharing, *withReuse, *withLegality, out)
		if err != nil {
			return fmt.Errorf("vet %s: %w", w.Name(), err)
		}
		if !ok {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("vet: static predictions contradict the profiler in %d workload(s)", failed)
	}
	return nil
}

func vetOne(w workloads.Workload, sc workloads.Scale, period, seed uint64, staticOnly, withSharing, withReuse, withLegality bool, out io.Writer) (bool, error) {
	p, phases, err := w.Build(nil, sc)
	if err != nil {
		return false, err
	}
	a, err := staticlint.AnalyzeProgram(p)
	if err != nil {
		return false, err
	}
	a.RenderText(out)

	// The reuse predictor models demand behaviour, so its verification
	// run disables the prefetcher.
	reuseCfg := cache.DefaultConfig()
	reuseCfg.Prefetch = false
	var rp *staticlint.ReusePrediction
	if withReuse {
		rp = staticlint.PredictReuse(a, reuseCfg)
		rp.RenderText(out)
	}

	var rep *core.Report
	ok := true
	if !staticOnly {
		res, dynRep, err := structslim.ProfileAndAnalyze(p, phases, structslim.Options{
			SamplePeriod: period,
			Seed:         seed,
		})
		if err != nil {
			return false, err
		}
		rep = dynRep
		r := staticlint.CrossCheck(a, res.Profile, 0)
		if rp != nil {
			rr, err := verifyReuse(p, phases, rp, reuseCfg)
			if err != nil {
				return false, err
			}
			r.FoldReuse(rr)
			rr.RenderText(out)
		}
		r.RenderText(out)
		ok = !r.Failed()
	}
	if withSharing {
		cacheCfg := cache.DefaultConfig()
		sa, err := sharing.Analyze(p, phases, int64(cacheCfg.LineSize))
		if err != nil {
			return false, err
		}
		sa.RenderText(out)
		if !staticOnly {
			obs, err := sharing.VerifyRun(p, phases, cacheCfg)
			if err != nil {
				return false, err
			}
			sr := sharing.CrossCheck(sa, obs)
			sr.RenderText(out)
			if sr.Failed() {
				ok = false
			}
		}
	}
	if withLegality {
		la, err := legality.AnalyzeProgram(p, a)
		if err != nil {
			return false, err
		}
		la.RenderText(out)
		if rep != nil {
			for _, sr := range rep.Structures {
				sr.Legality = legality.SummaryFor(la, sr.Name, sr.TypeName)
			}
		}
		if !staticOnly {
			lrep, err := legality.CrossCheck(la, cache.DefaultConfig(), phases)
			if err != nil {
				return false, err
			}
			lrep.RenderText(out)
			if lrep.Failed() {
				ok = false
			}
		}
	}
	staticlint.WriteFindings(out, staticlint.Lint(a, rep))
	return ok, nil
}

// verifyReuse runs the workload once more with the trace checker attached
// (no sampler, prefetch off) and returns the static-vs-dynamic report.
func verifyReuse(p *prog.Program, phases []structslim.Phase, rp *staticlint.ReusePrediction, cfg cache.Config) (*staticlint.ReuseReport, error) {
	m, err := vm.NewMachine(p, cfg, vm.CoresFor(phases), vm.Config{})
	if err != nil {
		return nil, err
	}
	tc := staticlint.NewTraceChecker(rp)
	m.Observer = tc
	st, err := m.RunAll(phases)
	if err != nil {
		return nil, err
	}
	return tc.Finish(st), nil
}
