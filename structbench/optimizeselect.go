package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/legality"
	"repro/internal/optimize"
	"repro/internal/prog"
	"repro/internal/workloads"
	"repro/structslim"
)

// optimizeWorkers is the optimizer's worker pool: one worker per core of
// the 2-core machine the benchmark was sized on.
const optimizeWorkers = 2

// optimizeSelect runs the layout optimizer over the seven paper programs.
// It drives the same vm and cache layers as profile-advice, but through
// many short statistical screens of rebuilt layouts and a few exact
// confirmations instead of one long profiled run.
type optimizeSelect struct {
	opts     optimize.Options
	programs []program
	// geomean is the first sweep's geometric-mean selected speedup. The
	// simulation is deterministic, so every later sweep must match it.
	geomean float64
}

func (b *optimizeSelect) terms() terms {
	return terms{
		round: "one sweep, optimize.Run on the 7 paper programs (optimize_s)",
		op:    "optimize.Run on one program",
		item:  "layout measurements",
	}
}

// optimizeSeed is the optimizer's sampling seed. The optimizer's work
// follows its profile: across sampling seeds 11 to 15 a sweep took 2.7 to
// 4.2 s, a spread no regression bound could absorb. So the sampling seed
// stays fixed, and the benchmark's seed orders the programs instead.
const optimizeSeed = 1

func (b *optimizeSelect) setup(seed uint64) error {
	names := slices.Clone(workloads.PaperOrder)
	rand.New(rand.NewPCG(seed, 0)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	programs, err := buildPrograms(names)
	if err != nil {
		return err
	}
	b.programs = programs
	b.opts = optimize.Options{Scale: workloads.ScaleTest, SamplePeriod: paperPeriod, Seed: optimizeSeed, Parallel: optimizeWorkers}
	b.geomean = 0
	return nil
}

func (b *optimizeSelect) round(tr *tracer, t *tally) error {
	speedups := make([]float64, 0, len(b.programs))
	for _, pg := range b.programs {
		var r *optimize.Result
		if tr == nil {
			r = b.op(pg, t)
		} else {
			var err error
			if r, err = b.tracedOp(tr, pg, t); err != nil {
				return err
			}
		}
		if r != nil {
			speedups = append(speedups, r.ConfirmedSpeedup)
		}
	}
	if len(speedups) < len(b.programs) {
		return nil // the failed run is already counted
	}
	gm := geomean(speedups)
	if b.geomean == 0 {
		b.geomean = gm
	} else if gm != b.geomean {
		t.check(fmt.Errorf("the geomean selected speedup changed between sweeps at one seed: %v, then %v", b.geomean, gm))
	}
	return nil
}

// op is one untraced optimizer run.
func (b *optimizeSelect) op(pg program, t *tally) *optimize.Result {
	t0 := time.Now()
	r, err := optimize.Run(pg.w, b.opts)
	d := time.Since(t0)
	if err != nil {
		t.check(fmt.Errorf("%s: %w", pg.w.Name(), err))
		return nil
	}
	t.op(d)
	t.work(float64(measurements(r)+1), d) // +1: the profiling run
	t.check(checkSelection(r))
	return r
}

// tracedOp times optimize.Run, then probes the stages it performs - the
// program build, the profile, the legality pass, the enumeration and the
// candidate rebuilds - one at a time. What remains of optimize.Run's time
// is measuring candidate layouts.
func (b *optimizeSelect) tracedOp(tr *tracer, pg program, t *tally) (*optimize.Result, error) {
	name := pg.w.Name()
	op := tr.newOp()
	root := tr.begin("optimize-select/"+name, 0, op, false)
	s := tr.begin("optimize.Run", root, op, false)
	r, err := optimize.Run(pg.w, b.opts)
	run := tr.end(s)
	if err != nil {
		tr.end(root)
		t.check(fmt.Errorf("%s: %w", name, err))
		return nil, nil
	}
	s = tr.begin("oracle", root, op, false)
	err = checkSelection(r)
	oracle := tr.end(s)
	tr.end(root)
	t.check(err)

	call := func(span string, f func() error) (time.Duration, error) { return probeCall(tr, op, name, span, f) }
	var p *prog.Program
	var phases []structslim.Phase
	build, err := call("prog.Build", func() (err error) {
		p, phases, err = pg.w.Build(nil, workloads.ScaleTest)
		return err
	})
	if err != nil {
		return nil, err
	}
	var rep *core.Report
	profiling, err := call("structslim.ProfileAndAnalyze", func() (err error) {
		_, rep, err = structslim.ProfileAndAnalyze(p, phases, structslim.Options{SamplePeriod: b.opts.SamplePeriod, Seed: b.opts.Seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	var la *legality.Analysis
	legalityTime, err := call("legality.AnalyzeProgram", func() (err error) {
		la, err = legality.AnalyzeProgram(p, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	rec := pg.w.Record()
	sr := structslim.FindStruct(rep, rec.Name)
	if sr == nil {
		return nil, fmt.Errorf("%s: record %s is not among the analyzed structures", name, rec.Name)
	}
	sr.Legality = legality.SummaryFor(la, sr.Name, sr.TypeName)
	var cands []optimize.Candidate
	enumerate, err := call("optimize.Enumerate", func() (err error) {
		cands, _, err = optimize.Enumerate(rec, sr, b.opts.Enum)
		return err
	})
	if err != nil {
		return nil, err
	}
	rebuilds, err := call("prog.Build candidates", func() error {
		for _, c := range cands {
			// A layout the kernel refuses is a candidate optimize.Run
			// reports as skipped; its failed build still costs time.
			_, _, _ = pg.w.Build(c.Layout, workloads.ScaleTest)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// optimize.Run builds the original layout, then every candidate once
	// to check it, then one program per measurement.
	perBuild := (build + rebuilds) / time.Duration(1+len(cands))
	builds := perBuild * time.Duration(1+len(cands)+measurements(r))
	tr.attribute("prog", builds)
	tr.attribute("structslim.ProfileAndAnalyze (vm, cache, pebs, core)", profiling)
	tr.attribute("legality", legalityTime)
	tr.attribute("optimize.Enumerate", enumerate)
	tr.attribute("optimize measurements (vm, cache, pebs on 2 workers)", run-profiling-legalityTime-enumerate-builds)
	tr.attribute("oracle", oracle)
	return r, nil
}

func (b *optimizeSelect) probe(tr *tracer, m metrics, t *tally) error {
	_, err := probeLayers(tr, m, t, b.programs, structslim.Options{SamplePeriod: paperPeriod, Seed: b.opts.Seed})
	return err
}

func (b *optimizeSelect) extra(t *tally) metrics {
	m := metrics{}
	m.set("optimize_s", median(t.rounds), "s")
	m.set("geomean_speedup", b.geomean, "x")
	return m
}
