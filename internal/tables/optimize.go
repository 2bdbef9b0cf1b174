package tables

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/optimize"
	"repro/internal/workloads"
)

// RankedGroupings runs the layout optimizer over the named workloads and
// collects the results for WriteRankedGroupings. Each run measures the
// baseline and every candidate once on the exact machine.
func RankedGroupings(opt Options, names []string) ([]*optimize.Result, error) {
	results := make([]*optimize.Result, 0, len(names))
	for _, name := range names {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		res, err := optimize.Run(w, optimize.Options{
			Scale:        opt.Scale,
			SamplePeriod: opt.SamplePeriod,
			Seed:         opt.Seed,
			Parallel:     opt.Parallel,
		})
		if err != nil {
			return nil, fmt.Errorf("optimize %s: %w", name, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// WriteRankedGroupings prints the measured candidate-layout ranking per
// workload: every grouping the enumerator produced, ordered by exact
// cycles, with the selection and how it compares to the paper's one-shot
// advice.
func WriteRankedGroupings(w io.Writer, results []*optimize.Result) {
	fmt.Fprintf(w, "Ranked candidate groupings (measured A/B selection)\n")
	for _, r := range results {
		fmt.Fprintf(w, "\n%s (%s):\n", r.Workload, r.Struct)
		fmt.Fprintf(w, "  %4s  %-18s %8s  %s\n", "rank", "candidate", "speedup", "grouping")
		for _, m := range r.Ranked {
			fmt.Fprintf(w, "  %4d  %-18s %7.3fx  %s\n", m.Rank, m.Label, m.Speedup, groupsString(m.Layout.Groups))
		}
		for _, s := range r.Skipped {
			fmt.Fprintf(w, "  skipped %s — %s\n", s.Label, s.Reason)
		}
		fmt.Fprintf(w, "  selected %s: %.3fx over baseline", r.Selected.Label, r.ConfirmedSpeedup)
		switch {
		case r.ExactAdvice == 0:
			fmt.Fprintf(w, " (no advice candidate)\n")
		case r.ExactSelected < r.ExactAdvice:
			fmt.Fprintf(w, " (beats the one-shot advice: %d vs %d cycles)\n", r.ExactSelected, r.ExactAdvice)
		default:
			fmt.Fprintf(w, " (matches the one-shot advice)\n")
		}
	}
}

func groupsString(groups [][]string) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = strings.Join(g, ",")
	}
	return "{" + strings.Join(parts, " | ") + "}"
}
