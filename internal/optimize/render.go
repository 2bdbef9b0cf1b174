package optimize

import (
	"fmt"
	"io"
)

// ResultJSON is the wire form of a Result — the body of POST
// /v1/optimize and of `structslim optimize -json`. It carries everything
// the ranked table renders, so a client (`structslim push -optimize`)
// can reproduce the table without rerunning anything.
type ResultJSON struct {
	Workload string `json:"workload"`
	Struct   string `json:"struct"`
	Verdict  string `json:"legality,omitempty"`
	Frozen   string `json:"frozen_reason,omitempty"`

	Candidates []MeasuredJSON `json:"candidates"`
	Skipped    []SkippedJSON  `json:"skipped,omitempty"`
	Selected   MeasuredJSON   `json:"selected"`

	ExactBaselineCycles uint64  `json:"exact_baseline_cycles"`
	ExactAdviceCycles   uint64  `json:"exact_advice_cycles,omitempty"`
	ExactSelectedCycles uint64  `json:"exact_selected_cycles"`
	ConfirmedSpeedup    float64 `json:"confirmed_speedup"`
}

// MeasuredJSON is one ranked candidate row; Cycles are exact-machine
// cycles.
type MeasuredJSON struct {
	Rank        int        `json:"rank"`
	Label       string     `json:"label"`
	Source      string     `json:"source,omitempty"`
	Layout      string     `json:"layout"`
	Groups      [][]string `json:"groups"`
	Cycles      uint64     `json:"cycles"`
	Speedup     float64    `json:"speedup"`
	L1MissRatio float64    `json:"l1_miss_ratio"`
}

// SkippedJSON is one candidate the workload refused to build with.
type SkippedJSON struct {
	Label  string `json:"label"`
	Layout string `json:"layout"`
	Reason string `json:"reason"`
}

func measuredJSON(m Measured) MeasuredJSON {
	return MeasuredJSON{
		Rank:        m.Rank,
		Label:       m.Label,
		Source:      m.Source,
		Layout:      m.Layout.String(),
		Groups:      m.Layout.Groups,
		Cycles:      m.ExactCycles,
		Speedup:     m.Speedup,
		L1MissRatio: m.L1MissRatio,
	}
}

// JSON converts the result to its wire form.
func (r *Result) JSON() *ResultJSON {
	j := &ResultJSON{
		Workload:            r.Workload,
		Struct:              r.Struct,
		Verdict:             r.Verdict,
		Frozen:              r.FrozenReason,
		Selected:            measuredJSON(r.Selected),
		ExactBaselineCycles: r.ExactBaseline,
		ExactAdviceCycles:   r.ExactAdvice,
		ExactSelectedCycles: r.ExactSelected,
		ConfirmedSpeedup:    r.ConfirmedSpeedup,
	}
	for _, m := range r.Ranked {
		j.Candidates = append(j.Candidates, measuredJSON(m))
	}
	for _, s := range r.Skipped {
		j.Skipped = append(j.Skipped, SkippedJSON(s))
	}
	return j
}

// RenderText writes the ranked A/B table. The output is deterministic:
// byte-identical at any worker count.
func (r *Result) RenderText(w io.Writer) { r.JSON().RenderText(w) }

// RenderText renders the wire form exactly like Result.RenderText, so a
// push client's table matches the server operator's.
func (j *ResultJSON) RenderText(w io.Writer) {
	fmt.Fprintf(w, "optimize: workload %s · record %s · %d candidates measured exactly\n",
		j.Workload, j.Struct, len(j.Candidates))
	if j.Verdict != "" {
		fmt.Fprintf(w, "legality: %s\n", j.Verdict)
	}
	if j.Frozen != "" {
		fmt.Fprintf(w, "frozen: %s — keeping the original layout\n", j.Frozen)
	}
	fmt.Fprintf(w, "%4s  %-18s %-12s %8s  %-7s  %s\n",
		"rank", "candidate", "cycles", "speedup", "L1 miss", "layout")
	for _, c := range j.Candidates {
		fmt.Fprintf(w, "%4d  %-18s %-12d %7.3fx  %-7.4f  %s\n",
			c.Rank, c.Label, c.Cycles, c.Speedup, c.L1MissRatio, c.Layout)
	}
	for _, s := range j.Skipped {
		fmt.Fprintf(w, "skipped %s %s — %s\n", s.Label, s.Layout, s.Reason)
	}
	fmt.Fprintf(w, "selected: %s\n", j.Selected.Layout)
	fmt.Fprintf(w, "confirmed (exact machine): baseline %d → selected %d cycles, speedup %.3fx",
		j.ExactBaselineCycles, j.ExactSelectedCycles, j.ConfirmedSpeedup)
	if j.ExactAdviceCycles > 0 {
		fmt.Fprintf(w, " (paper advice: %d cycles)", j.ExactAdviceCycles)
	}
	fmt.Fprintln(w)
}
