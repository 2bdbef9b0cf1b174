package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/workloads"
)

// runOptimize closes the loop: profile the workload at its original
// layout, enumerate legal candidate layouts from the analysis (advice
// seed, hot/cold bisection, affinity ladder, reorder, padding), measure
// the baseline and every candidate once on the exact machine, and print
// the ranked table plus the selection, the fastest row.
//
//	structslim optimize -workload art [-scale bench] [-parallel 8] [-json -]
func runOptimize(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to optimize (must declare a record)")
		scale    = fs.String("scale", "test", "problem scale: test or bench")
		period   = fs.Uint64("period", 10_000, "address-sampling period for the profiling run")
		seed     = fs.Uint64("seed", 1, "sampling randomization seed")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent candidate measurements (output is byte-identical at any value)")
		topK     = fs.Int("topk", 3, "data structures to analyze in depth")
		thresh   = fs.Float64("affinity", 0.5, "affinity clustering threshold for the advice seed")
		maxCand  = fs.Int("max-candidates", 0, "cap on enumerated candidates (0 = default)")
		jsonPath = fs.String("json", "", "also write the ranked result as JSON to this file (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("optimize: need -workload")
	}
	w, err := workloads.Get(*name)
	if err != nil {
		return err
	}
	sc, err := workloads.ParseScale(*scale)
	if err != nil {
		return err
	}
	opt := optimize.Options{
		Scale:        sc,
		SamplePeriod: *period,
		Seed:         *seed,
		Parallel:     *parallel,
		Analysis:     core.Options{TopK: *topK, AffinityThreshold: *thresh},
		Enum:         optimize.EnumOptions{MaxCandidates: *maxCand},
	}
	res, err := optimize.Run(w, opt)
	if err != nil {
		return err
	}
	res.RenderText(out)

	if *jsonPath != "" {
		return writeOutput(*jsonPath, out, func(jout io.Writer) error {
			enc := json.NewEncoder(jout)
			enc.SetIndent("", "  ")
			return enc.Encode(res.JSON())
		})
	}
	return nil
}
