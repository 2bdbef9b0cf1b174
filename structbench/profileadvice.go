package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/workloads"
	"repro/structslim"
)

// paperPeriod samples every 2000th memory access. At test scale that is
// dense enough for the GCD stride recovery to converge on all seven
// paper programs; the optimizer runs at it too.
const paperPeriod = 2000

// program is one workload program, built once at test scale.
type program struct {
	w      workloads.Workload
	p      *prog.Program
	phases []structslim.Phase
}

func buildPrograms(names []string) ([]program, error) {
	out := make([]program, 0, len(names))
	for _, name := range names {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		p, phases, err := w.Build(nil, workloads.ScaleTest)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
		out = append(out, program{w: w, p: p, phases: phases})
	}
	return out, nil
}

// profileAdvice is the profiler's primary use: one client profiles and
// analyzes the seven paper programs in turn, and each advised split is
// checked against the paper.
type profileAdvice struct {
	opts     structslim.Options
	programs []program
	// sim holds each program's simulated counts from its first run; every
	// later run at the same seed must reproduce them exactly.
	sim []simCounts
	// tracing is set by probe. From then on untraced operations keep
	// their rendered report, which the traced path must reproduce.
	tracing  bool
	rendered [][]byte
	// replay is each program's cache-replay time from the probe pass.
	replay []time.Duration
}

// simCounts are the deterministic outputs of one profiled run.
type simCounts struct {
	instrs, memOps, appCycles, wallCycles, samples uint64
}

func countsOf(res *structslim.RunResult) simCounts {
	return simCounts{
		instrs:     res.Stats.Instrs,
		memOps:     res.Stats.MemOps,
		appCycles:  res.Stats.AppWallCycles,
		wallCycles: res.Stats.WallCycles,
		samples:    res.Profile.NumSamples,
	}
}

func (b *profileAdvice) terms() terms {
	return terms{
		round: "one sweep, the 7 paper programs profiled and analyzed (sweep_s)",
		op:    "one program profiled and analyzed",
		item:  "simulated memory accesses profiled",
	}
}

func (b *profileAdvice) setup(seed uint64) error {
	programs, err := buildPrograms(workloads.PaperOrder)
	if err != nil {
		return err
	}
	b.opts = structslim.Options{SamplePeriod: paperPeriod, Seed: seed}
	b.programs = programs
	b.sim = make([]simCounts, len(programs))
	b.rendered = make([][]byte, len(programs))
	b.replay = make([]time.Duration, len(programs))
	return nil
}

func (b *profileAdvice) round(tr *tracer, t *tally) error {
	for i := range b.programs {
		if tr == nil {
			b.op(i, t)
		} else if err := b.tracedOp(tr, i, t); err != nil {
			return err
		}
	}
	return nil
}

// op is one untraced operation: the one-call workflow.
func (b *profileAdvice) op(i int, t *tally) {
	pg := b.programs[i]
	t0 := time.Now()
	res, rep, err := structslim.ProfileAndAnalyze(pg.p, pg.phases, b.opts)
	d := time.Since(t0)
	if err != nil {
		t.check(fmt.Errorf("%s: %w", pg.w.Name(), err))
		return
	}
	t.op(d)
	t.work(float64(res.Stats.MemOps), d)
	t.check(b.verify(i, res, rep))
	if b.tracing && b.rendered[i] == nil {
		b.rendered[i] = render(rep)
	}
}

// verify checks one program's outputs: its hot field's advised group
// against the paper, and its simulated counts against its first run.
func (b *profileAdvice) verify(i int, res *structslim.RunResult, rep *core.Report) error {
	pg := b.programs[i]
	if err := checkAdvice(rep, pg.w.Record().Name, paperGroups[pg.w.Name()]); err != nil {
		return err
	}
	c := countsOf(res)
	if b.sim[i] == (simCounts{}) {
		b.sim[i] = c
	} else if c != b.sim[i] {
		return fmt.Errorf("%s: simulated counts changed between runs at one seed: %+v, then %+v", pg.w.Name(), b.sim[i], c)
	}
	return nil
}

// tracedOp is the same operation taken apart at its layer boundaries:
// ProfileRun then core.Analyze, which is what ProfileAndAnalyze does.
// Probes after it time the machine alone (structslim.Run), the profile
// merge and the loop analysis; with the probe pass's cache-replay time
// they split the operation among vm, cache, pebs, profile, cfg and core.
func (b *profileAdvice) tracedOp(tr *tracer, i int, t *tally) error {
	pg := b.programs[i]
	name := pg.w.Name()
	op := tr.newOp()
	root := tr.begin("profile-advice/"+name, 0, op, false)
	s := tr.begin("structslim.ProfileRun", root, op, false)
	res, err := structslim.ProfileRun(pg.p, pg.phases, b.opts)
	profileRun := tr.end(s)
	var rep *core.Report
	var analyze time.Duration
	if err == nil {
		s = tr.begin("core.Analyze", root, op, false)
		rep, err = core.Analyze(res.Profile, pg.p, b.opts.Analysis)
		analyze = tr.end(s)
	}
	if err != nil {
		tr.end(root)
		t.check(fmt.Errorf("%s: %w", name, err))
		return nil
	}
	s = tr.begin("oracle", root, op, false)
	err = b.verify(i, res, rep)
	if err == nil && !bytes.Equal(render(rep), b.rendered[i]) {
		err = fmt.Errorf("%s: the traced path's report differs from ProfileAndAnalyze's", name)
	}
	oracle := tr.end(s)
	tr.end(root)
	t.check(err)

	call := func(span string, f func() error) (time.Duration, error) { return probeCall(tr, op, name, span, f) }
	run, err := call("structslim.Run", func() error {
		_, err := structslim.Run(pg.p, pg.phases, b.opts)
		return err
	})
	if err != nil {
		return err
	}
	merge, err := call("profile.ReduceThreadProfiles", func() error {
		_, err := profile.ReduceThreadProfiles(res.ThreadProfiles, b.opts.MergeWorkers)
		return err
	})
	if err != nil {
		return err
	}
	loops, err := call("cfg.AnalyzeLoops", func() error {
		_, err := cfg.AnalyzeLoops(pg.p)
		return err
	})
	if err != nil {
		return err
	}
	cacheTime := b.replay[i]
	tr.attribute("vm", run-cacheTime)
	tr.attribute("cache", cacheTime)
	tr.attribute("pebs", profileRun-run-merge)
	tr.attribute("profile", merge)
	tr.attribute("cfg", loops)
	tr.attribute("core", analyze-loops)
	tr.attribute("oracle", oracle)
	return nil
}

func (b *profileAdvice) probe(tr *tracer, m metrics, t *tally) error {
	b.tracing = true
	replay, err := probeLayers(tr, m, t, b.programs, b.opts)
	if err != nil {
		return err
	}
	b.replay = replay
	return nil
}

func (b *profileAdvice) extra(t *tally) metrics {
	var app, wall uint64
	for _, c := range b.sim {
		app += c.appCycles
		wall += c.wallCycles
	}
	m := metrics{}
	m.set("sweep_s", median(t.rounds), "s")
	m.set("overhead_pct", 100*ratio(float64(wall-app), float64(app)), "%")
	return m
}
