// False-sharing detection: the static sharing analyzer plus the
// coherence-backed verifier on a planted fixture.
//
// The falseshare workload packs four threads' {hits, ticks} counters
// into one 64-byte cache line. A per-thread locality profile sees
// nothing wrong — every access is thread-private — but the line
// ping-pongs between the cores on every increment. This example:
//
//  1. runs the static sharing pass, which classifies both fields as
//     thread-private with a 16-byte per-thread write stride and predicts
//     the false sharing with keep-apart advice;
//
//  2. verifies the prediction against the cache directory's
//     write-invalidation traffic;
//
//  3. applies the advice (pad each slot to its own line) and measures
//     the speedup and the collapse of the invalidation storm.
//
//     go run ./examples/falseshare
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cache"
	"repro/internal/prog"
	"repro/internal/sharing"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/structslim"
)

func main() {
	w, err := workloads.Get("falseshare")
	if err != nil {
		log.Fatal(err)
	}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		log.Fatal(err)
	}

	// Static pass: thread roles from the phase list, per-field sharing
	// classes from the dataflow, false-sharing findings from the claims
	// plus the layout.
	cfg := cache.DefaultConfig()
	a, err := sharing.Analyze(p, phases, int64(cfg.LineSize))
	if err != nil {
		log.Fatal(err)
	}
	a.RenderText(os.Stdout)

	// Dynamic pass: rerun with the access and coherence observers and
	// score every claim and prediction against what the machine did.
	obs, err := sharing.VerifyRun(p, phases, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep := sharing.CrossCheck(a, obs)
	rep.RenderText(os.Stdout)

	// Apply the advice: pad each per-thread slot to its own line, and
	// measure both layouts without any instrumentation attached.
	dense := run(p, phases)
	pw := workloads.PaddedFalseShare(cfg.LineSize)
	pp, pphases, err := pw.Build(nil, workloads.ScaleTest)
	if err != nil {
		log.Fatal(err)
	}
	padded := run(pp, pphases)

	fmt.Printf("Advice applied (slots padded to the %d-byte line):\n", cfg.LineSize)
	fmt.Printf("  dense:  %9d cycles  %6d write-invalidations\n",
		dense.AppWallCycles, dense.Cache.WriteInvalidations)
	fmt.Printf("  padded: %9d cycles  %6d write-invalidations\n",
		padded.AppWallCycles, padded.Cache.WriteInvalidations)
	fmt.Printf("  speedup %.2fx, invalidations cut %dx\n",
		float64(dense.AppWallCycles)/float64(padded.AppWallCycles),
		dense.Cache.WriteInvalidations/max1(padded.Cache.WriteInvalidations))
}

func run(p *prog.Program, phases []workloads.Phase) vm.Stats {
	st, err := structslim.Run(p, phases, structslim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return st
}

func max1(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}
