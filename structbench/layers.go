package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/legality"
	"repro/internal/optimize"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/structslim"
)

// probeCall runs f inside a probe span of operation op: a call made only
// to measure a layer, left out of trace_overhead_pct.
func probeCall(tr *tracer, op int, what, name string, f func() error) (time.Duration, error) {
	s := tr.begin(name, 0, op, true)
	err := f()
	d := tr.end(s)
	if err != nil {
		return d, fmt.Errorf("%s: %s: %w", what, name, err)
	}
	return d, nil
}

// layerTotals sums the probe pass's measurements over its targets.
type layerTotals struct {
	build, run, runReplayed, replay, sampler, merge, loops, analyze time.Duration
	legality, enumerate, decode, ingest, report, optimize           time.Duration

	instrs, instrsReplayed, memOps, cycles, accesses uint64
	samples, appCycles, overheadCycles               uint64
	decodeAllocs, ingestAllocs                       uint64
	misses                                           [3]uint64 // L1, L2, L3

	candidates, skipped, confirmed, measurements int
	speedups                                     []float64
}

// probeLayers times each layer's public entry points on the targets, one
// call at a time, and stores the per-layer metrics in m. It returns each
// target's cache-replay time (0 where the replay disagrees with the
// machine's own counters).
func probeLayers(tr *tracer, m metrics, t *tally, targets []program, opts structslim.Options) ([]time.Duration, error) {
	var a layerTotals
	replays := make([]time.Duration, len(targets))
	for i, tg := range targets {
		d, err := a.probe(tr, t, tg, opts)
		if err != nil {
			return nil, err
		}
		replays[i] = d
	}
	a.store(m)
	return replays, nil
}

// probe measures every layer once on one target and returns its
// cache-replay time.
func (a *layerTotals) probe(tr *tracer, t *tally, tg program, opts structslim.Options) (time.Duration, error) {
	name := tg.w.Name()
	op := tr.newOp()
	call := func(span string, f func() error) (time.Duration, error) { return probeCall(tr, op, name, span, f) }

	d, err := call("prog.Build", func() error {
		_, _, err := tg.w.Build(nil, workloads.ScaleTest)
		return err
	})
	if err != nil {
		return 0, err
	}
	a.build += d

	var st vm.Stats
	run, err := call("structslim.Run", func() (err error) {
		st, err = structslim.Run(tg.p, tg.phases, opts)
		return err
	})
	if err != nil {
		return 0, err
	}
	a.run += run
	a.instrs += st.Instrs
	a.memOps += st.MemOps
	a.cycles += st.AppWallCycles

	var rp replay
	if _, err := call("cache replay", func() (err error) {
		rp, err = replayCache(tg.p, tg.phases)
		return err
	}); err != nil {
		return 0, err
	}
	var replayTime time.Duration
	if rp.matches(st.Cache) {
		replayTime = rp.elapsed
		a.replay += rp.elapsed
		a.runReplayed += run
		a.instrsReplayed += st.Instrs
		a.accesses += rp.accesses
		for l := range a.misses {
			a.misses[l] += rp.misses[l]
		}
	} else {
		fmt.Fprintf(os.Stderr, "structbench: %s: the cache replay's counters differ from the machine's; left out of the cache rows\n", name)
	}

	var res *structslim.RunResult
	profileRun, err := call("structslim.ProfileRun", func() (err error) {
		res, err = structslim.ProfileRun(tg.p, tg.phases, opts)
		return err
	})
	if err != nil {
		return 0, err
	}
	a.sampler += profileRun - run
	a.samples += res.Profile.NumSamples
	a.appCycles += res.Stats.AppWallCycles
	a.overheadCycles += res.Stats.WallCycles - res.Stats.AppWallCycles

	if d, err = call("profile.ReduceThreadProfiles", func() error {
		_, err := profile.ReduceThreadProfiles(res.ThreadProfiles, opts.MergeWorkers)
		return err
	}); err != nil {
		return 0, err
	}
	a.merge += d
	if d, err = call("cfg.AnalyzeLoops", func() error {
		_, err := cfg.AnalyzeLoops(tg.p)
		return err
	}); err != nil {
		return 0, err
	}
	a.loops += d
	var rep *core.Report
	if d, err = call("core.Analyze", func() (err error) {
		rep, err = core.Analyze(res.Profile, tg.p, opts.Analysis)
		return err
	}); err != nil {
		return 0, err
	}
	a.analyze += d

	// The same samples through the service's layers: the server's decode
	// of the binary requests, then the stream analyzer fed directly.
	sessions := sessionBatches(res.ThreadProfiles)
	requests := frameRequests(sessions)
	var allocs uint64
	if d, err = call("server.DecodeBatchesArena", func() (err error) {
		allocs, err = decodeAll(requests)
		return err
	}); err != nil {
		return 0, err
	}
	a.decode += d
	a.decodeAllocs += allocs
	an, err := stream.New(tg.p, stream.Config{Shards: ingestShards})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if d, err = call("stream.Analyzer.Ingest", func() (err error) {
		allocs, err = ingestAll(an, sessions)
		return err
	}); err != nil {
		return 0, err
	}
	a.ingest += d
	a.ingestAllocs += allocs
	var streamed *core.Report
	if d, err = call("stream.Analyzer.Report", func() (err error) {
		streamed, err = an.Report()
		return err
	}); err != nil {
		return 0, err
	}
	a.report += d
	var diff error
	if !bytes.Equal(render(streamed), render(rep)) {
		diff = fmt.Errorf("%s: the stream analyzer's report differs from core.Analyze over the same samples", name)
	}
	t.check(diff)

	var la *legality.Analysis
	if d, err = call("legality.AnalyzeProgram", func() (err error) {
		la, err = legality.AnalyzeProgram(tg.p, nil)
		return err
	}); err != nil {
		return 0, err
	}
	a.legality += d
	rec := tg.w.Record()
	sr := structslim.FindStruct(rep, rec.Name)
	if sr == nil {
		return 0, fmt.Errorf("%s: record %s is not among the analyzed structures", name, rec.Name)
	}
	sr.Legality = legality.SummaryFor(la, sr.Name, sr.TypeName)
	var cands []optimize.Candidate
	if d, err = call("optimize.Enumerate", func() (err error) {
		cands, _, err = optimize.Enumerate(rec, sr, optimize.EnumOptions{})
		return err
	}); err != nil {
		return 0, err
	}
	a.enumerate += d
	a.candidates += len(cands)
	var r *optimize.Result
	if d, err = call("optimize.RunWithReport", func() (err error) {
		r, err = optimize.RunWithReport(tg.w, tg.p, rep, optimize.Options{
			Scale: workloads.ScaleTest, SamplePeriod: paperPeriod, Seed: opts.Seed, Parallel: optimizeWorkers,
		})
		return err
	}); err != nil {
		return 0, err
	}
	a.optimize += d
	t.check(checkSelection(r))
	a.skipped += len(r.Skipped)
	a.confirmed += confirmed(r)
	a.measurements += measurements(r)
	a.speedups = append(a.speedups, r.ConfirmedSpeedup)
	return replayTime, nil
}

// store writes the per-layer metrics.
func (a *layerTotals) store(m metrics) {
	per := func(d time.Duration, n uint64) float64 { return ratio(float64(d), float64(n)) }
	m.set("prog.build_ms", ms(a.build), "ms")
	m.set("machine.ns_per_instr", per(a.run, a.instrs), "ns")
	m.set("vm.ns_per_instr_self", per(a.runReplayed-a.replay, a.instrsReplayed), "ns")
	m.set("cache.ns_per_access", per(a.replay, a.accesses), "ns")
	m.set("machine.instrs", float64(a.instrs), "count")
	m.set("machine.memops", float64(a.memOps), "count")
	m.set("machine.sim_cycles", float64(a.cycles), "cycles")
	m.set("cache.l1_misses", float64(a.misses[0]), "count")
	m.set("cache.l2_misses", float64(a.misses[1]), "count")
	m.set("cache.l3_misses", float64(a.misses[2]), "count")
	m.set("pebs.sampler_ms", ms(a.sampler), "ms")
	m.set("pebs.samples", float64(a.samples), "count")
	m.set("pebs.sim_overhead_pct", 100*ratio(float64(a.overheadCycles), float64(a.appCycles)), "%")
	m.set("profile.merge_ms", ms(a.merge), "ms")
	m.set("cfg.loops_ms", ms(a.loops), "ms")
	m.set("core.analyze_ms", ms(a.analyze), "ms")
	m.set("core.analyze_ns_per_sample", per(a.analyze, a.samples), "ns")
	m.set("legality.analyze_ms", ms(a.legality), "ms")
	m.set("optimize.enumerate_ms", ms(a.enumerate), "ms")
	m.set("optimize.candidates", float64(a.candidates), "count")
	m.set("optimize.skipped", float64(a.skipped), "count")
	m.set("optimize.confirmed", float64(a.confirmed), "count")
	m.set("optimize.ms_per_measurement", ratio(ms(a.optimize), float64(a.measurements)), "ms")
	m.set("optimize.geomean_speedup", geomean(a.speedups), "x")
	m.set("server.decode_ns_per_sample", per(a.decode, a.samples), "ns")
	m.set("server.decode_allocs_per_sample", ratio(float64(a.decodeAllocs), float64(a.samples)), "count")
	m.set("stream.ingest_ns_per_sample", per(a.ingest, a.samples), "ns")
	m.set("stream.allocs_per_sample", ratio(float64(a.ingestAllocs), float64(a.samples)), "count")
	m.set("stream.report_ms", ms(a.report), "ms")
}

// decodeAll decodes every request body as the server's handler does and
// returns the heap allocations that took.
func decodeAll(requests [][][]byte) (uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, bodies := range requests {
		for _, body := range bodies {
			bs, arena, err := server.DecodeBatchesArena(bytes.NewReader(body), server.ContentTypeBinary)
			if err != nil {
				return 0, err
			}
			for range bs {
				arena.Release()
			}
		}
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, nil
}

// ingestAll feeds every session's batches, in order, straight into the
// analyzer and returns the heap allocations that took.
func ingestAll(an *stream.Analyzer, sessions [][]stream.Batch) (uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, batches := range sessions {
		for _, b := range batches {
			if err := an.Ingest(b); err != nil {
				return 0, err
			}
		}
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, nil
}

// replayChunk bounds the recorded accesses held at once: a test-scale
// program issues millions, so they are replayed in chunks as recorded.
const replayChunk = 1 << 16

// access is one recorded data access.
type access struct {
	ip, ea uint64
	core   int32
	size   uint8
	write  bool
}

// replayer records a machine's access stream through a vm.AccessObserver
// and replays it, chunk by chunk and in the order captured, into a second
// hierarchy of the same configuration. Only the replay is timed, so
// elapsed is the cache model's own cost.
type replayer struct {
	h       *cache.Hierarchy
	cores   []int32 // the core of each thread of the running phase
	buf     []access
	elapsed time.Duration
	n       uint64
}

func (r *replayer) OnAccess(ev *vm.MemEvent) uint64 {
	r.buf = append(r.buf, access{ip: ev.IP, ea: ev.EA, core: r.cores[ev.TID], size: ev.Size, write: ev.Write})
	if len(r.buf) == replayChunk {
		r.flush()
	}
	return 0
}

func (r *replayer) flush() {
	t0 := time.Now()
	for i := range r.buf {
		a := &r.buf[i]
		r.h.Access(int(a.core), a.ip, a.ea, int(a.size), a.write)
	}
	r.elapsed += time.Since(t0)
	r.n += uint64(len(r.buf))
	r.buf = r.buf[:0]
}

// replay is the outcome of one cache replay.
type replay struct {
	elapsed  time.Duration
	accesses uint64
	misses   [3]uint64 // L1, L2, L3
	levels   []cache.LevelStats
}

// matches reports whether the replay counted exactly what the machine's
// own hierarchy did, level by level.
func (rp replay) matches(st cache.Stats) bool {
	if len(rp.levels) != len(st.Levels) {
		return false
	}
	for i := range st.Levels {
		if rp.levels[i] != st.Levels[i] {
			return false
		}
	}
	return true
}

// replayCache runs the program on the machine structslim.Run builds (the
// default cache and interpreter configuration) with a replayer attached.
func replayCache(p *prog.Program, phases []structslim.Phase) (replay, error) {
	cores := 1
	for _, ph := range phases {
		for _, ts := range ph {
			cores = max(cores, ts.Core+1)
		}
	}
	m, err := vm.NewMachine(p, cache.DefaultConfig(), cores, vm.Config{})
	if err != nil {
		return replay{}, err
	}
	h, err := cache.NewHierarchy(cache.DefaultConfig(), cores)
	if err != nil {
		return replay{}, err
	}
	r := &replayer{h: h, buf: make([]access, 0, replayChunk)}
	m.Observer = r
	for _, ph := range phases {
		r.cores = r.cores[:0]
		for _, ts := range ph {
			r.cores = append(r.cores, int32(ts.Core))
		}
		if _, err := m.Run(ph); err != nil {
			return replay{}, err
		}
		r.flush()
	}
	st := h.Stats()
	rp := replay{elapsed: r.elapsed, accesses: r.n, levels: st.Levels}
	for l := 0; l < len(rp.misses) && l < len(st.Levels); l++ {
		rp.misses[l] = st.Levels[l].Misses
	}
	return rp, nil
}
