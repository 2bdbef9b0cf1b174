package tables

// staterror.go quantifies statistical-mode fidelity: for each paper
// workload and warmup window W, run the pipeline exactly and
// statistically, and report how much the measurements drifted and
// whether the advice survived. This is the experiment behind the
// advice-error-vs-W table in EXPERIMENTS.md; the hard per-commit gate on
// advice identity at the default window lives in
// statistical_differential_test.go.

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// StatErrorRow is one (workload, window) fidelity measurement.
type StatErrorRow struct {
	Workload string
	Window   int
	// SimulatedPct is the fraction of accesses that ran the full cache
	// model (the warmup windows plus the sampled accesses).
	SimulatedPct float64
	Samples      uint64
	// AdviceOK reports whether the statistical run's analyzed-structure
	// ranking and SplitAdvice partitions match exact mode.
	AdviceOK bool
	// CycleErr is the relative error of total app cycles (the skipped
	// accesses charge an estimated latency); MissErr is the relative
	// error of the whole-run L1 miss ratio, which statistical mode
	// measures only over simulated accesses.
	CycleErr float64
	MissErr  float64
}

// adviceKey canonicalizes what must not drift: analyzed structures in
// rank order, each with its advice partition (offset groups,
// order-independent within and across groups).
func adviceKey(rep *core.Report) string {
	var sb strings.Builder
	for _, sr := range rep.Structures {
		fmt.Fprintf(&sb, "%s:", sr.Name)
		if sr.Advice != nil {
			groups := make([]string, 0, len(sr.Advice.Offsets))
			for _, offs := range sr.Advice.Offsets {
				o := append([]uint64(nil), offs...)
				sort.Slice(o, func(i, j int) bool { return o[i] < o[j] })
				parts := make([]string, len(o))
				for i, v := range o {
					parts[i] = fmt.Sprint(v)
				}
				groups = append(groups, strings.Join(parts, ","))
			}
			sort.Strings(groups)
			fmt.Fprintf(&sb, "{%s}", strings.Join(groups, "|"))
		}
		sb.WriteString(";")
	}
	return sb.String()
}

func relErrF(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// StatErrorSweep measures every paper workload at every window size, in
// (workload, window) order. Exact runs are keyed per workload, so the
// sweep pays for one exact pipeline per workload regardless of how many
// windows it probes.
func (e *Engine) StatErrorSweep(windows []int) ([]StatErrorRow, error) {
	type cell struct {
		name   string
		window int
	}
	var cells []cell
	for _, name := range workloads.PaperOrder {
		for _, win := range windows {
			cells = append(cells, cell{name, win})
		}
	}
	return runner.Collect(e.pool, cells, func(c cell) (StatErrorRow, error) {
		w, err := workloads.Get(c.name)
		if err != nil {
			return StatErrorRow{}, err
		}
		exactRun, exactRep, err := e.analyzedRun(w, e.opt)
		if err != nil {
			return StatErrorRow{}, err
		}
		o := e.opt
		o.StatWindow = c.window
		statRun, statRep, err := e.analyzedRun(w, o)
		if err != nil {
			return StatErrorRow{}, err
		}
		row := StatErrorRow{
			Workload: c.name,
			Window:   c.window,
			AdviceOK: adviceKey(statRep) == adviceKey(exactRep),
			CycleErr: relErrF(float64(statRun.Res.Stats.AppWallCycles), float64(exactRun.Res.Stats.AppWallCycles)),
		}
		if r := statRun.Res.Stat; r != nil {
			row.SimulatedPct = r.SimulatedPct
			row.Samples = r.Samples
			exactL1 := l1Ratio(exactRun)
			if exactL1 > 0 {
				row.MissErr = relErrF(r.L1MissRatio, exactL1)
			}
		}
		return row, nil
	})
}

func l1Ratio(pr *profiledRun) float64 {
	lv := pr.Res.Stats.Cache.Levels
	if len(lv) == 0 || lv[0].Accesses == 0 {
		return 0
	}
	return float64(lv[0].Misses) / float64(lv[0].Accesses)
}

// WriteStatError renders the sweep grouped by workload.
func WriteStatError(w io.Writer, rows []StatErrorRow) {
	fmt.Fprintln(w, "Statistical-mode fidelity: advice and measurement error vs window W")
	fmt.Fprintf(w, "  %-12s %-6s %-10s %-9s %-9s %-9s %s\n",
		"workload", "W", "simulated", "samples", "cycleerr", "misserr", "advice")
	for _, r := range rows {
		advice := "MATCH"
		if !r.AdviceOK {
			advice = "DIVERGED"
		}
		fmt.Fprintf(w, "  %-12s %-6d %8.2f%%  %-9d %8.2f%% %8.2f%%  %s\n",
			r.Workload, r.Window, r.SimulatedPct, r.Samples,
			100*r.CycleErr, 100*r.MissErr, advice)
	}
}
