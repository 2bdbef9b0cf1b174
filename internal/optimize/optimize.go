package optimize

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/runner"
	"repro/internal/split"
	"repro/internal/vm"
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
	// SamplePeriod and Seed drive the profiling run (and key the
	// measurement cache). Zero values use the profiler defaults.
	SamplePeriod uint64
	Seed         uint64
	// Parallel bounds the experiment engine's worker pool (<=1 runs
	// sequentially; results are byte-identical at any value).
	Parallel int
	// Exact measures every candidate with the exact machine instead of
	// the statistical engine. The selection is the same either way: the
	// winner is always confirmed exactly.
	Exact bool
	// StatWindow is the statistical warmup window W (0 = the default).
	StatWindow int
	// Analysis tunes the profiling run's analyzer (TopK, affinity
	// threshold). The profiling run is always exact so the candidate set
	// is measurement-mode independent.
	Analysis core.Options
	// Enum tunes the candidate enumerator.
	Enum EnumOptions
}

func (o Options) window() int {
	if o.StatWindow > 0 {
		return o.StatWindow
	}
	return vm.DefaultStatWindow
}

func (o Options) mode() string {
	if o.Exact {
		return "exact"
	}
	return "statistical"
}

// Measured is one ranked row of the A/B table: a candidate plus its
// measured cost.
type Measured struct {
	Candidate
	// Rank is the 1-based position in the ranked table (1 = fastest).
	Rank int
	// Cycles is the simulated application cycles under the run's
	// measurement mode; Speedup is baseline cycles / Cycles.
	Cycles  uint64
	Speedup float64
	// L1MissRatio and MissRatioCI95 quantify the measurement: the miss
	// ratio over the (simulated subset of) accesses and its 95% binomial
	// confidence half-width (0 for exact runs, which simulate everything).
	L1MissRatio   float64
	MissRatioCI95 float64
	// SimulatedPct is the fraction of accesses fully simulated (100 for
	// exact runs).
	SimulatedPct float64
	// ExactCycles is the exact-machine confirmation (0 for rows outside
	// the confirmation set).
	ExactCycles uint64
}

// Result is the outcome of one optimizer run.
type Result struct {
	Workload string
	Struct   string
	// Mode is the candidate measurement mode ("statistical" or "exact");
	// Window is the statistical window W (0 in exact mode).
	Mode   string
	Window int
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
	// Selected is the final choice: the exact-cycle argmin over the
	// confirmation set (ranked leaders + advice + baseline), so the
	// selection never loses to the baseline or the paper's advice on the
	// exact machine.
	Selected Measured
	// ExactBaseline / ExactAdvice / ExactSelected are the exact-machine
	// confirmation cycles (ExactAdvice is 0 when the advice produced no
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
	Cycles       uint64
	L1MissRatio  float64
	MissRatioCI  float64
	SimulatedPct float64
}

// Run profiles the workload at its original layout, analyzes the profile
// (exactly, so the candidate set is independent of the measurement
// mode), attaches the legality verdicts, and hands off to RunWithReport.
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
		Mode:         opt.mode(),
		FrozenReason: frozen,
	}
	if !opt.Exact {
		r.Window = opt.window()
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

	pool := runner.New(opt.Parallel)
	measure := func(c Candidate, exact bool) (measurement, error) {
		mode := "stat"
		if exact {
			mode = "exact"
		}
		key := fmt.Sprintf("optimize/%s/%s/p%d/s%d/%s/w%d/%s",
			w.Name(), opt.Scale, opt.SamplePeriod, opt.Seed, mode, opt.window(), c.Key)
		return runner.Cached(pool, key, func() (measurement, error) {
			return measureLayout(w, c.Layout, opt, exact)
		})
	}

	// Measure the baseline and every candidate under the primary mode.
	// Collect preserves input order; the pool bounds concurrency and
	// dedups structurally identical work, so the results are
	// byte-identical at any worker count.
	primary, err := runner.Collect(pool, rows, func(c Candidate) (measurement, error) {
		return measure(c, opt.Exact)
	})
	if err != nil {
		return nil, err
	}
	baseCycles := primary[0].Cycles
	r.Ranked = make([]Measured, len(rows))
	for i, c := range rows {
		m := primary[i]
		r.Ranked[i] = Measured{
			Candidate:     c,
			Cycles:        m.Cycles,
			L1MissRatio:   m.L1MissRatio,
			MissRatioCI95: m.MissRatioCI,
			SimulatedPct:  m.SimulatedPct,
		}
		if m.Cycles > 0 {
			r.Ranked[i].Speedup = float64(baseCycles) / float64(m.Cycles)
		}
	}
	sort.SliceStable(r.Ranked, func(i, j int) bool {
		if r.Ranked[i].Cycles != r.Ranked[j].Cycles {
			return r.Ranked[i].Cycles < r.Ranked[j].Cycles
		}
		return r.Ranked[i].Label < r.Ranked[j].Label
	})
	for i := range r.Ranked {
		r.Ranked[i].Rank = i + 1
	}

	// Confirmation set: every candidate within a noise band of the
	// statistical leader (at least the top three), plus the advice
	// candidate and the baseline. The statistical engine cannot separate
	// near-ties — a candidate 2% behind the leader may well be the exact
	// winner — so the band, not a fixed cutoff, decides who gets an
	// exact-machine run. Including advice and baseline guarantees the
	// selection never measures worse than either on the exact machine.
	const (
		confirmLeaders = 3
		confirmBand    = 1.05
	)
	confirmIdx := make([]int, 0, confirmLeaders+2)
	inConfirm := make(map[string]bool)
	add := func(i int) {
		if i < 0 || inConfirm[r.Ranked[i].Key] {
			return
		}
		inConfirm[r.Ranked[i].Key] = true
		confirmIdx = append(confirmIdx, i)
	}
	band := uint64(float64(r.Ranked[0].Cycles) * confirmBand)
	for i := 0; i < len(r.Ranked); i++ {
		if i >= confirmLeaders && r.Ranked[i].Cycles > band {
			break
		}
		add(i)
	}
	add(findLabel(r.Ranked, "advice"))
	add(findLabel(r.Ranked, "baseline"))

	confirmed, err := runner.Collect(pool, confirmIdx, func(i int) (measurement, error) {
		return measure(r.Ranked[i].Candidate, true)
	})
	if err != nil {
		return nil, err
	}
	selected := -1
	for k, i := range confirmIdx {
		r.Ranked[i].ExactCycles = confirmed[k].Cycles
		if selected < 0 ||
			r.Ranked[i].ExactCycles < r.Ranked[selected].ExactCycles ||
			(r.Ranked[i].ExactCycles == r.Ranked[selected].ExactCycles &&
				r.Ranked[i].Label < r.Ranked[selected].Label) {
			selected = i
		}
	}
	r.Selected = r.Ranked[selected]
	r.ExactSelected = r.Selected.ExactCycles
	if i := findLabel(r.Ranked, "baseline"); i >= 0 {
		r.ExactBaseline = r.Ranked[i].ExactCycles
	}
	if i := findLabel(r.Ranked, "advice"); i >= 0 {
		r.ExactAdvice = r.Ranked[i].ExactCycles
	}
	if r.ExactSelected > 0 {
		r.ConfirmedSpeedup = float64(r.ExactBaseline) / float64(r.ExactSelected)
	}
	return r, nil
}

func findLabel(rows []Measured, label string) int {
	for i := range rows {
		if rows[i].Label == label {
			return i
		}
	}
	return -1
}

// measureLayout rebuilds the workload with one candidate layout and runs
// it. Exact runs use the bare machine (no sampler); statistical runs use
// the windowed engine, whose StatReport quantifies the estimate.
func measureLayout(w workloads.Workload, l *prog.PhysLayout, opt Options, exact bool) (measurement, error) {
	p, phases, err := w.Build(l, opt.Scale)
	if err != nil {
		return measurement{}, err
	}
	ro := structslim.Options{SamplePeriod: opt.SamplePeriod, Seed: opt.Seed}
	if exact {
		st, err := structslim.Run(p, phases, ro)
		if err != nil {
			return measurement{}, err
		}
		m := measurement{Cycles: st.AppWallCycles, SimulatedPct: 100}
		if len(st.Cache.Levels) > 0 && st.Cache.Levels[0].Accesses > 0 {
			l1 := st.Cache.Levels[0]
			m.L1MissRatio = float64(l1.Misses) / float64(l1.Accesses)
		}
		return m, nil
	}
	ro.VM.StatWindow = opt.window()
	res, err := structslim.ProfileRun(p, phases, ro)
	if err != nil {
		return measurement{}, err
	}
	m := measurement{Cycles: res.Stats.AppWallCycles}
	if res.Stat != nil {
		m.L1MissRatio = res.Stat.L1MissRatio
		m.MissRatioCI = res.Stat.MissRatioCI95
		m.SimulatedPct = res.Stat.SimulatedPct
	}
	return m, nil
}
