package optimize

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/runner"
	"repro/internal/split"
	"repro/internal/workloads"
	"repro/structslim"
)

// ErrNoHotStruct is returned when the analyzed profile contains no
// samples for the workload's record — there is nothing to optimize. The
// server maps it to 409.
var ErrNoHotStruct = errors.New("profile has no hot structs")

// Options configures one optimizer run.
type Options struct {
	// Scale is the problem scale candidates are measured at.
	Scale workloads.Scale
	// SamplePeriod and Seed drive only Run's profiling pass; zero values
	// use the profiler defaults. RunWithReport ignores them: an exact
	// measurement depends on the workload, layout and scale alone.
	SamplePeriod uint64
	Seed         uint64
	// Parallel bounds the experiment engine's worker pool (<=1 runs
	// sequentially; results are byte-identical at any value).
	Parallel int
	// Analysis tunes the profiling run's analyzer (TopK, affinity
	// threshold).
	Analysis core.Options
	// Enum tunes the candidate enumerator.
	Enum EnumOptions
}

// Measured is one ranked row of the A/B table: a candidate plus its
// exact-machine measurement.
type Measured struct {
	Candidate
	// Rank is the 1-based position in the ranked table (1 = fastest).
	Rank int
	// ExactCycles is the simulated application cycles on the exact
	// machine; Speedup is the baseline's ExactCycles / ExactCycles.
	ExactCycles uint64
	Speedup     float64
	// L1MissRatio is the run's L1 miss ratio.
	L1MissRatio float64
}

// Result is the outcome of one optimizer run.
type Result struct {
	Workload string
	Struct   string
	// Verdict is the legality verdict of the hot structure
	// ("split-safe", "keep-together", "frozen", or "" when no legality
	// pass ran); FrozenReason is set when the verdict froze enumeration.
	Verdict      string
	FrozenReason string
	// Ranked lists the baseline and every candidate, fastest first.
	Ranked []Measured
	// Skipped lists enumerated candidates the workload refused to build
	// (kernels may carry co-location constraints of their own, e.g. a
	// pointer chase that must stay with its payload) — reported rather
	// than silently dropped.
	Skipped []Skipped
	// Selected is the final choice: the exact-cycle argmin over every
	// ranked row (Ranked[0]), so the selection never loses to the
	// baseline or the paper's advice on the exact machine.
	Selected Measured
	// ExactBaseline / ExactAdvice / ExactSelected are the exact-machine
	// cycles of those rows (ExactAdvice is 0 when the advice produced no
	// distinct candidate). ConfirmedSpeedup = ExactBaseline/ExactSelected.
	ExactBaseline    uint64
	ExactAdvice      uint64
	ExactSelected    uint64
	ConfirmedSpeedup float64
}

// Skipped is one enumerated candidate the workload could not be rebuilt
// with.
type Skipped struct {
	Label  string
	Layout string
	Reason string
}

// measurement is the cached result of running one layout variant.
type measurement struct {
	Cycles      uint64
	L1MissRatio float64
}

// Run profiles the workload at its original layout, analyzes the
// profile, attaches the legality verdicts, and hands off to
// RunWithReport.
func Run(w workloads.Workload, opt Options) (*Result, error) {
	rec := w.Record()
	if rec == nil {
		return nil, fmt.Errorf("optimize: workload %s has no record to lay out", w.Name())
	}
	p, phases, err := w.Build(nil, opt.Scale)
	if err != nil {
		return nil, err
	}
	po := structslim.Options{SamplePeriod: opt.SamplePeriod, Seed: opt.Seed, Analysis: opt.Analysis}
	_, rep, err := structslim.ProfileAndAnalyze(p, phases, po)
	if err != nil {
		return nil, err
	}
	if _, err := structslim.AttachLegality(rep, p); err != nil {
		return nil, err
	}
	return RunWithReport(w, p, rep, opt)
}

// RunWithReport runs enumeration and the A/B selection loop against an
// existing analysis — e.g. a report derived from a pushed profile
// snapshot. p is the program the report was analyzed against; when it is
// non-nil and the report carries no legality verdicts yet, the legality
// pass runs here so enumeration is always gated.
func RunWithReport(w workloads.Workload, p *prog.Program, rep *core.Report, opt Options) (*Result, error) {
	rec := w.Record()
	if rec == nil {
		return nil, fmt.Errorf("optimize: workload %s has no record to lay out", w.Name())
	}
	if rep == nil || rep.NumSamples == 0 {
		return nil, fmt.Errorf("optimize: %w (no samples analyzed)", ErrNoHotStruct)
	}
	sr := structslim.FindStruct(rep, rec.Name)
	if sr == nil {
		return nil, fmt.Errorf("optimize: %w (record %s not among the analyzed structures)", ErrNoHotStruct, rec.Name)
	}
	if sr.Legality == nil && p != nil {
		if _, err := structslim.AttachLegality(rep, p); err != nil {
			return nil, err
		}
	}

	cands, frozen, err := Enumerate(rec, sr, opt.Enum)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Workload:     w.Name(),
		Struct:       sr.Name,
		FrozenReason: frozen,
	}
	if sr.Legality != nil {
		r.Verdict = sr.Legality.Verdict
	}

	// Feasibility filter: a kernel may refuse layouts that violate its
	// own invariants (e.g. TSP's tour chase needs x/y co-located with
	// next). A refused candidate is recorded, not measured.
	base := prog.AoS(rec)
	baseline := Candidate{Label: "baseline", Source: "original AoS layout", Layout: base, Key: split.Key(base)}
	rows := []Candidate{baseline}
	for _, c := range cands {
		if _, _, err := w.Build(c.Layout, opt.Scale); err != nil {
			r.Skipped = append(r.Skipped, Skipped{Label: c.Label, Layout: c.Layout.String(), Reason: err.Error()})
			continue
		}
		rows = append(rows, c)
	}

	// Measure the baseline and every candidate once on the exact machine.
	// Collect preserves input order and holds no worker token; the keyed
	// leaf job holds one, so the pool bounds concurrency. Enumerate drops
	// any candidate whose layout repeats the baseline's or an earlier
	// candidate's, so each key runs once, and the results are
	// byte-identical at any worker count.
	pool := runner.New(opt.Parallel)
	ms, err := runner.Collect(pool, rows, func(c Candidate) (measurement, error) {
		return runner.Cached(pool, c.Key, func() (measurement, error) {
			return measureLayout(w, c.Layout, opt.Scale)
		})
	})
	if err != nil {
		return nil, err
	}
	r.ExactBaseline = ms[0].Cycles
	r.Ranked = make([]Measured, len(rows))
	for i, c := range rows {
		r.Ranked[i] = Measured{Candidate: c, ExactCycles: ms[i].Cycles, L1MissRatio: ms[i].L1MissRatio}
		if ms[i].Cycles > 0 {
			r.Ranked[i].Speedup = float64(r.ExactBaseline) / float64(ms[i].Cycles)
		}
	}
	sort.SliceStable(r.Ranked, func(i, j int) bool {
		if r.Ranked[i].ExactCycles != r.Ranked[j].ExactCycles {
			return r.Ranked[i].ExactCycles < r.Ranked[j].ExactCycles
		}
		return r.Ranked[i].Label < r.Ranked[j].Label
	})
	for i := range r.Ranked {
		r.Ranked[i].Rank = i + 1
		if r.Ranked[i].Label == "advice" {
			r.ExactAdvice = r.Ranked[i].ExactCycles
		}
	}

	// The selection is the exact argmin, ties broken by label.
	r.Selected = r.Ranked[0]
	r.ExactSelected = r.Selected.ExactCycles
	if r.ExactSelected > 0 {
		r.ConfirmedSpeedup = float64(r.ExactBaseline) / float64(r.ExactSelected)
	}
	return r, nil
}

// measureLayout rebuilds the workload with one candidate layout and runs
// it on the exact machine with no sampler attached. Run reads only the
// cache, core and VM settings, so zero Options make the measurement a
// function of the workload, layout and scale alone.
func measureLayout(w workloads.Workload, l *prog.PhysLayout, s workloads.Scale) (measurement, error) {
	p, phases, err := w.Build(l, s)
	if err != nil {
		return measurement{}, err
	}
	st, err := structslim.Run(p, phases, structslim.Options{})
	if err != nil {
		return measurement{}, err
	}
	m := measurement{Cycles: st.AppWallCycles}
	if len(st.Cache.Levels) > 0 && st.Cache.Levels[0].Accesses > 0 {
		l1 := st.Cache.Levels[0]
		m.L1MissRatio = float64(l1.Misses) / float64(l1.Accesses)
	}
	return m, nil
}
