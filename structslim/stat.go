package structslim

// stat.go is the statistical-mode error report, the run-level analogue of
// the paper's Equation 4 confidence argument: statistical simulation
// changes no sampled address (sampling is access-count driven and program
// semantics stay exact), so stride recovery keeps its Eq. 4 bound
// untouched; what it approximates is the latency distribution, quantified
// here by the simulated fraction and a binomial confidence interval on
// the L1 miss ratio measured over the simulated accesses.

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/stride"
	"repro/internal/vm"
)

// StatReport quantifies what a statistical profiling run simulated,
// skipped, and how confident its estimates are.
type StatReport struct {
	// Window is the configured warmup window W (accesses per sample).
	Window int
	// Windows is how many fast-forward windows were armed (≈ samples with
	// a gap wider than W).
	Windows uint64
	// SimulatedAccesses ran the full cache model; SkippedAccesses ran
	// exact program semantics but charged EstimatedCycles in total from
	// the per-thread running-mean latency. Their sum is TotalAccesses
	// (every access the run retired).
	SimulatedAccesses uint64
	SkippedAccesses   uint64
	TotalAccesses     uint64
	EstimatedCycles   uint64
	// SimulatedPct = 100 × SimulatedAccesses / TotalAccesses.
	SimulatedPct float64
	// Samples is the number of address samples recorded.
	Samples uint64
	// L1MissRatio is the miss ratio over the simulated accesses, and
	// MissRatioCI95 its 95% binomial confidence half-width — the
	// uncertainty induced by measuring the ratio on a subset.
	L1MissRatio   float64
	MissRatioCI95 float64
	// StrideConfidence is Equation 4's accuracy lower bound for the
	// weakest analyzable stream (the fewest-sample stream that still
	// qualifies for size voting); statistical mode leaves it untouched
	// because the sampled addresses are exact.
	StrideConfidence float64
}

// buildStatReport assembles the error report for one profiled run.
func buildStatReport(window int, st vm.Stats, p *profile.Profile) *StatReport {
	r := &StatReport{
		Window:            window,
		Windows:           st.Stat.Windows,
		SimulatedAccesses: st.Stat.Simulated,
		SkippedAccesses:   st.Stat.Skipped,
		TotalAccesses:     st.MemOps,
		EstimatedCycles:   st.Stat.EstimatedCycles,
	}
	if r.TotalAccesses > 0 {
		r.SimulatedPct = 100 * float64(r.SimulatedAccesses) / float64(r.TotalAccesses)
	}
	if p != nil {
		r.Samples = p.NumSamples
	}
	if len(st.Cache.Levels) > 0 {
		l1 := st.Cache.Levels[0]
		if l1.Accesses > 0 {
			pr := float64(l1.Misses) / float64(l1.Accesses)
			r.L1MissRatio = pr
			r.MissRatioCI95 = 1.96 * math.Sqrt(pr*(1-pr)/float64(l1.Accesses))
		}
	}
	if p != nil {
		weakest := 0
		for _, s := range p.Streams {
			if s.Count < core.MinStreamSamples {
				continue
			}
			if weakest == 0 || int(s.Count) < weakest {
				weakest = int(s.Count)
			}
		}
		if weakest > 0 {
			r.StrideConfidence = stride.AccuracyLowerBound(weakest)
		}
	}
	return r
}

// RenderText writes the report in the tool's table style.
func (r *StatReport) RenderText(w io.Writer) {
	fmt.Fprintf(w, "statistical simulation (window W=%d)\n", r.Window)
	fmt.Fprintf(w, "  windows armed        %12d\n", r.Windows)
	fmt.Fprintf(w, "  accesses simulated   %12d (%.2f%% of %d)\n",
		r.SimulatedAccesses, r.SimulatedPct, r.TotalAccesses)
	fmt.Fprintf(w, "  accesses skipped     %12d (%d cycles estimated)\n",
		r.SkippedAccesses, r.EstimatedCycles)
	fmt.Fprintf(w, "  samples recorded     %12d (sampled addresses exact)\n", r.Samples)
	fmt.Fprintf(w, "  L1 miss ratio        %12.4f ± %.4f (95%% CI over simulated accesses)\n",
		r.L1MissRatio, r.MissRatioCI95)
	fmt.Fprintf(w, "  stride confidence    %12.4f (Eq. 4 lower bound, weakest analyzed stream)\n",
		r.StrideConfidence)
}
