// Package structslim is the public API of the StructSlim reproduction: a
// lightweight profiler that pinpoints arrays-of-structures worth
// splitting, after Roy & Liu, "StructSlim: A Lightweight Profiler to
// Guide Structure Splitting" (CGO 2016).
//
// The workflow mirrors the paper's tool:
//
//	program  := ...                          // a synthetic binary (internal/prog)
//	res, _   := structslim.ProfileRun(program, phases, opts)   // online profiler
//	report, _ := structslim.Analyze(res, program, opts)        // offline analyzer
//	report.RenderText(os.Stdout)                               // advice + tables
//
// ProfileRun executes the program on the simulated machine with PEBS-LL
// style address sampling attached; Analyze recovers loops from the
// binary, ranks data structures by latency share, runs the GCD stride
// analysis, computes field affinities, and emits splitting advice. Run
// executes without the profiler for baseline timing, and Optimize applies
// the advice to a record layout so the improved program can be rebuilt
// and measured.
package structslim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/legality"
	"repro/internal/pebs"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/regroup"
	"repro/internal/split"
	"repro/internal/vm"
)

// Phase is one stage of a program's execution: the threads launched
// together and run to completion before the next phase starts (e.g. a
// sequential initialization phase followed by a parallel compute phase).
// It is an alias so workload packages can return phases without importing
// this package.
type Phase = []vm.ThreadSpec

// Options configures profiling and analysis. The zero value gives the
// paper's defaults.
type Options struct {
	// SamplePeriod is the number of memory accesses per address sample
	// (paper: 10,000). 0 uses the default.
	SamplePeriod uint64
	// IBS switches the sampler to AMD-IBS semantics: the period counts
	// retired instructions and tags landing on non-memory instructions
	// are lost. Default is Intel PEBS-LL semantics.
	IBS bool
	// Seed drives period randomization deterministically.
	Seed uint64

	// Cache overrides the simulated hierarchy (nil = the paper's Xeon
	// E5-4650L model).
	Cache *cache.Config
	// VM tunes the interpreter. VM.StatWindow > 0 profiles in
	// sampled-window statistical mode: only that many accesses of warmup
	// before each sample (plus the sample itself) run the full cache
	// model, and ProfileRun attaches a StatReport. The sampled accesses,
	// and so every stride, size and offset, are unchanged; latencies are
	// approximate. Run and IBS sampling stay exact either way.
	VM vm.Config
	// MergeWorkers bounds the parallel reduction-tree profile merge.
	MergeWorkers int

	// Analysis tunes the offline analyzer.
	Analysis core.Options
}

// samplerConfig is the paper's sampler (pebs.DefaultConfig) at the
// options' period, mode and seed.
func (o Options) samplerConfig() pebs.Config {
	c := pebs.DefaultConfig()
	if o.SamplePeriod != 0 {
		c.Period = o.SamplePeriod
	}
	if o.IBS {
		c.Mode = pebs.ModeIBS
	}
	c.Seed = o.Seed
	return c
}

func (o Options) cacheConfig() cache.Config {
	if o.Cache != nil {
		return *o.Cache
	}
	return cache.DefaultConfig()
}

func maxThreads(phases []Phase) int {
	n := 1
	for _, ph := range phases {
		if len(ph) > n {
			n = len(ph)
		}
	}
	return n
}

// RunResult is the outcome of a profiled run.
type RunResult struct {
	// Stats aggregates the machine's cycle, instruction, and cache
	// counters across all phases.
	Stats vm.Stats
	// Profile is the merged whole-program profile.
	Profile *profile.Profile
	// ThreadProfiles are the per-thread profiles before merging (what
	// the online profiler writes to disk, one file per thread).
	ThreadProfiles []*profile.ThreadProfile
	// Stat is the statistical-mode error report (nil on exact runs).
	Stat *StatReport
}

// Run executes the program without profiling and returns baseline timing
// and cache statistics.
func Run(p *prog.Program, phases []Phase, opt Options) (vm.Stats, error) {
	m, err := vm.NewMachine(p, opt.cacheConfig(), vm.CoresFor(phases), opt.VM)
	if err != nil {
		return vm.Stats{}, err
	}
	return m.RunAll(phases)
}

// ProfileRun executes the program with the PEBS-style sampler attached
// and returns the run statistics plus the merged profile.
func ProfileRun(p *prog.Program, phases []Phase, opt Options) (*RunResult, error) {
	m, err := vm.NewMachine(p, opt.cacheConfig(), vm.CoresFor(phases), opt.VM)
	if err != nil {
		return nil, err
	}
	sampler := pebs.NewSampler(opt.samplerConfig(), m.Space, maxThreads(phases))
	m.Observer = sampler
	stats, err := m.RunAll(phases)
	if err != nil {
		return nil, err
	}
	tps := sampler.Finish(stats)
	merged, err := profile.ReduceThreadProfiles(tps, opt.MergeWorkers)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Stats: stats, Profile: merged, ThreadProfiles: tps}
	if opt.VM.StatWindow > 0 {
		res.Stat = buildStatReport(opt.VM.StatWindow, stats, merged)
	}
	return res, nil
}

// Analyze runs the offline analyzer over a profiled run.
func Analyze(res *RunResult, p *prog.Program, opt Options) (*core.Report, error) {
	if res == nil || res.Profile == nil {
		return nil, fmt.Errorf("nil run result")
	}
	return core.Analyze(res.Profile, p, opt.Analysis)
}

// ProfileAndAnalyze is the one-call workflow.
func ProfileAndAnalyze(p *prog.Program, phases []Phase, opt Options) (*RunResult, *core.Report, error) {
	res, err := ProfileRun(p, phases, opt)
	if err != nil {
		return nil, nil, err
	}
	rep, err := Analyze(res, p, opt)
	if err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// AnalyzeRegrouping runs the array-regrouping analysis (the paper's
// stated future work; see internal/regroup) over a profiled run. When a
// legality analysis is supplied (may be nil), frozen arrays are excluded
// from the clustering and reported as skipped.
func AnalyzeRegrouping(res *RunResult, p *prog.Program, opt Options, la *legality.Analysis) (*regroup.Report, error) {
	if res == nil || res.Profile == nil {
		return nil, fmt.Errorf("nil run result")
	}
	ropt := regroup.Options{
		AffinityThreshold: opt.Analysis.AffinityThreshold,
		MinLd:             opt.Analysis.MinLd,
	}
	if la != nil {
		ropt.Frozen = legality.FrozenIdentities(la, res.Profile)
	}
	return regroup.Analyze(res.Profile, p, ropt)
}

// AttachLegality runs the transform-legality pass over the program and
// attaches a verdict summary to every analyzed structure in the report,
// so Optimize can refuse unsound splits and renderers can show the
// verdict. Returns the full analysis for callers that want the
// per-object detail or a dynamic cross-check.
func AttachLegality(rep *core.Report, p *prog.Program) (*legality.Analysis, error) {
	a, err := legality.AnalyzeProgram(p, nil)
	if err != nil {
		return nil, err
	}
	for _, sr := range rep.Structures {
		sr.Legality = legality.SummaryFor(a, sr.Name, sr.TypeName)
	}
	return a, nil
}

// Optimize converts a structure's splitting advice into a physical layout
// for the given record, completing the partition with any cold fields.
// If a legality verdict is attached to the report (AttachLegality), the
// layout is gated on it: frozen structures are refused and keep-together
// constraints merge the advice's groups.
func Optimize(rec *prog.RecordSpec, sr *core.StructReport) (*prog.PhysLayout, error) {
	if sr == nil {
		return nil, fmt.Errorf("nil structure report")
	}
	return split.LayoutFromAdvice(rec, sr.Advice, sr.Legality)
}

// FindStruct locates the analyzed structure whose debug type or display
// name matches, or nil.
func FindStruct(rep *core.Report, name string) *core.StructReport {
	for _, sr := range rep.Structures {
		if sr.TypeName == name || sr.Name == name {
			return sr
		}
	}
	return nil
}
