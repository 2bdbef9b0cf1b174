package repro_test

// The benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus ablations of the design choices called out in
// DESIGN.md. Speedups, overheads, and affinities are attached to each
// benchmark as custom metrics, so `go test -bench=. -benchmem` regenerates
// the whole evaluation in one run.
//
// Benchmarks run at test scale by default so the full sweep stays
// tractable; set STRUCTSLIM_BENCH_SCALE=bench for the paper-sized runs.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/stride"
	"repro/internal/tables"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/structslim"
)

func benchScale() workloads.Scale {
	if os.Getenv("STRUCTSLIM_BENCH_SCALE") == "bench" {
		return workloads.ScaleBench
	}
	return workloads.ScaleTest
}

func benchOpt() tables.Options {
	return tables.Options{Scale: benchScale(), SamplePeriod: 3000, Seed: 7}
}

// --- Tables -----------------------------------------------------------------

func BenchmarkTable2Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables.WriteTable2(io.Discard)
	}
}

// benchmarkTable3 runs the full Table 3/4 pipeline for one workload and
// reports its speedup, overhead, and L1/L2 miss reductions as metrics.
func benchmarkTable3(b *testing.B, name string) {
	w, err := workloads.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	var r *tables.BenchResult
	for i := 0; i < b.N; i++ {
		r, err = tables.NewEngine(benchOpt()).RunBenchmark(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Speedup, "speedup")
	b.ReportMetric(r.OverheadPct, "overhead%")
	b.ReportMetric(r.MissReduction("L1"), "L1redux%")
	b.ReportMetric(r.MissReduction("L2"), "L2redux%")
	b.ReportMetric(r.MissReduction("L3"), "L3redux%")
}

func BenchmarkTable3ART(b *testing.B)        { benchmarkTable3(b, "art") }
func BenchmarkTable3Libquantum(b *testing.B) { benchmarkTable3(b, "libquantum") }
func BenchmarkTable3TSP(b *testing.B)        { benchmarkTable3(b, "tsp") }
func BenchmarkTable3MSER(b *testing.B)       { benchmarkTable3(b, "mser") }
func BenchmarkTable3CLOMP(b *testing.B)      { benchmarkTable3(b, "clomp") }
func BenchmarkTable3Health(b *testing.B)     { benchmarkTable3(b, "health") }
func BenchmarkTable3NN(b *testing.B)         { benchmarkTable3(b, "nn") }

// Table 4 shares Table 3's runs; its dedicated target reports the miss
// reductions of the full set in one pass.
func BenchmarkTable4CacheMissReductions(b *testing.B) {
	var results []*tables.BenchResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = tables.NewEngine(benchOpt()).RunPaperBenchmarks()
		if err != nil {
			b.Fatal(err)
		}
	}
	var l1, l2 float64
	for _, r := range results {
		l1 += r.MissReduction("L1")
		l2 += r.MissReduction("L2")
	}
	b.ReportMetric(l1/float64(len(results)), "avgL1redux%")
	b.ReportMetric(l2/float64(len(results)), "avgL2redux%")
}

func BenchmarkTable5ARTFields(b *testing.B) {
	var pShare float64
	for i := 0; i < b.N; i++ {
		sr, err := tables.NewEngine(benchOpt()).AnalyzeART()
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range sr.Fields {
			if f.Name == "P" {
				pShare = 100 * f.Share
			}
		}
	}
	b.ReportMetric(pShare, "P-share%")
}

func BenchmarkTable6ARTLoops(b *testing.B) {
	var hotShare float64
	for i := 0; i < b.N; i++ {
		sr, err := tables.NewEngine(benchOpt()).AnalyzeART()
		if err != nil {
			b.Fatal(err)
		}
		for _, lr := range sr.Loops {
			if lr.Loop != nil {
				hotShare = 100 * lr.Share
				break
			}
		}
	}
	b.ReportMetric(hotShare, "hottest-loop%")
}

// --- Figures ----------------------------------------------------------------

func benchmarkSuiteOverhead(b *testing.B, suite string) {
	var points []tables.OverheadPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = tables.NewEngine(benchOpt()).SuiteOverheads(suite)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, pt := range points {
		sum += pt.OverheadPct
	}
	b.ReportMetric(sum/float64(len(points)), "avg-overhead%")
}

func BenchmarkFigure4RodiniaOverhead(b *testing.B) {
	benchmarkSuiteOverhead(b, workloads.RodiniaSuite)
}

func BenchmarkFigure5SpecOverhead(b *testing.B) {
	benchmarkSuiteOverhead(b, workloads.SpecSuite)
}

func BenchmarkFigure6ARTAffinityGraph(b *testing.B) {
	var aIU float64
	for i := 0; i < b.N; i++ {
		sr, err := tables.NewEngine(benchOpt()).AnalyzeART()
		if err != nil {
			b.Fatal(err)
		}
		sr.WriteDot(io.Discard)
		offOf := map[string]uint64{}
		for _, f := range sr.Fields {
			offOf[f.Name] = f.Offset
		}
		aIU = sr.Affinity.Affinity(offOf["I"], offOf["U"])
	}
	b.ReportMetric(aIU, "A(I,U)")
}

func benchmarkSplitFigure(b *testing.B, fig int) {
	for i := 0; i < b.N; i++ {
		if err := tables.NewEngine(benchOpt()).SplitFigure(io.Discard, tables.FigureNumberFor[fig]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7ARTSplit(b *testing.B)        { benchmarkSplitFigure(b, 7) }
func BenchmarkFigure8LibquantumSplit(b *testing.B) { benchmarkSplitFigure(b, 8) }
func BenchmarkFigure9TSPSplit(b *testing.B)        { benchmarkSplitFigure(b, 9) }
func BenchmarkFigure10MSERSplit(b *testing.B)      { benchmarkSplitFigure(b, 10) }
func BenchmarkFigure11CLOMPSplit(b *testing.B)     { benchmarkSplitFigure(b, 11) }
func BenchmarkFigure12HealthSplit(b *testing.B)    { benchmarkSplitFigure(b, 12) }
func BenchmarkFigure13NNSplit(b *testing.B)        { benchmarkSplitFigure(b, 13) }

func BenchmarkEquation4Accuracy(b *testing.B) {
	var rows []tables.AccuracyRow
	for i := 0; i < b.N; i++ {
		rows = tables.AccuracyExperiment(10000, 1000, 3)
	}
	for _, r := range rows {
		if r.K == 10 {
			b.ReportMetric(r.Simulated, "accuracy@k=10")
		}
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------------

// BenchmarkAblationGCDAdjacentVsPairwise compares the paper's
// adjacent-difference GCD against an all-pairs variant: same answer on
// constant-stride streams, quadratically more work.
func BenchmarkAblationGCDAdjacentVsPairwise(b *testing.B) {
	addrs := make([]uint64, 256)
	for i := range addrs {
		addrs[i] = uint64(i*3) * 56
	}
	pairwise := func(a []uint64) uint64 {
		var g uint64
		for i := 0; i < len(a); i++ {
			for j := i + 1; j < len(a); j++ {
				d := a[j] - a[i]
				if a[i] > a[j] {
					d = a[i] - a[j]
				}
				g = stride.GCD(g, d)
			}
		}
		return g
	}
	b.Run("adjacent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if stride.OfAddresses(addrs) != 56*3 {
				b.Fatal("wrong stride")
			}
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pairwise(addrs) != 56*3 {
				b.Fatal("wrong stride")
			}
		}
	})
}

// BenchmarkAblationAffinityWeight contrasts latency-weighted affinity
// (the paper's Equation 7) with count-weighted affinity (Chilimbi-style,
// core.Options.WeightByCount) on ART's profile: the metric of interest is
// A(P,U), which the paper argues must stay low even though P and U
// co-occur in two loops.
func BenchmarkAblationAffinityWeight(b *testing.B) {
	w, err := workloads.Get("art")
	if err != nil {
		b.Fatal(err)
	}
	p, phases, err := w.Build(nil, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	var latencyPU, countPU float64
	for i := 0; i < b.N; i++ {
		res, err := structslim.ProfileRun(p, phases, structslim.Options{SamplePeriod: 3000, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		measure := func(byCount bool) float64 {
			rep, err := core.Analyze(res.Profile, p, core.Options{WeightByCount: byCount})
			if err != nil {
				b.Fatal(err)
			}
			sr := structslim.FindStruct(rep, "f1_neuron")
			if sr == nil {
				b.Fatal("f1_neuron not analyzed")
			}
			offOf := map[string]uint64{}
			for _, f := range sr.Fields {
				offOf[f.Name] = f.Offset
			}
			return sr.Affinity.Affinity(offOf["P"], offOf["U"])
		}
		latencyPU = measure(false)
		countPU = measure(true)
	}
	b.ReportMetric(latencyPU, "A(P,U)-latency")
	b.ReportMetric(countPU, "A(P,U)-count")
}

// BenchmarkAblationPeriod sweeps the sampling period on ART and reports
// the overhead at each setting, the paper's key overhead/visibility
// trade-off.
func BenchmarkAblationPeriod(b *testing.B) {
	w, _ := workloads.Get("art")
	for _, period := range []uint64{1000, 10_000, 100_000} {
		period := period
		b.Run(formatPeriod(period), func(b *testing.B) {
			var overhead float64
			var samples uint64
			for i := 0; i < b.N; i++ {
				p, phases, err := w.Build(nil, benchScale())
				if err != nil {
					b.Fatal(err)
				}
				res, err := structslim.ProfileRun(p, phases, structslim.Options{SamplePeriod: period, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				overhead = res.Stats.OverheadPct()
				samples = res.Profile.NumSamples
			}
			b.ReportMetric(overhead, "overhead%")
			b.ReportMetric(float64(samples), "samples")
		})
	}
}

func formatPeriod(p uint64) string {
	if p >= 1000 && p%1000 == 0 {
		return "period-" + itoa(int(p/1000)) + "k"
	}
	return "period-" + itoa(int(p))
}

// BenchmarkAblationPrefetcher measures how much of the split's win the
// hardware prefetcher already covers, by running NN's original and split
// layouts with the prefetcher on and off.
func BenchmarkAblationPrefetcher(b *testing.B) {
	w, _ := workloads.Get("nn")
	run := func(b *testing.B, prefetch bool) float64 {
		cfg := cache.DefaultConfig()
		cfg.Prefetch = prefetch
		opt := structslim.Options{SamplePeriod: 3000, Seed: 7, Cache: &cfg}
		// Advice from a quick profiled run.
		p, phases, err := w.Build(nil, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		_, rep, err := structslim.ProfileAndAnalyze(p, phases, opt)
		if err != nil {
			b.Fatal(err)
		}
		sr := structslim.FindStruct(rep, "neighbor")
		layout, err := structslim.Optimize(w.Record(), sr)
		if err != nil {
			b.Fatal(err)
		}
		measure := func(l interface{}) uint64 {
			var st uint64
			pp, ph, err := w.Build(nil, benchScale())
			if l != nil {
				pp, ph, err = w.Build(layout, benchScale())
			}
			if err != nil {
				b.Fatal(err)
			}
			s, err := structslim.Run(pp, ph, opt)
			if err != nil {
				b.Fatal(err)
			}
			st = s.AppWallCycles
			return st
		}
		return float64(measure(nil)) / float64(measure(layout))
	}
	b.Run("prefetch-on", func(b *testing.B) {
		var speedup float64
		for i := 0; i < b.N; i++ {
			speedup = run(b, true)
		}
		b.ReportMetric(speedup, "speedup")
	})
	b.Run("prefetch-off", func(b *testing.B) {
		var speedup float64
		for i := 0; i < b.N; i++ {
			speedup = run(b, false)
		}
		b.ReportMetric(speedup, "speedup")
	})
}

// BenchmarkAblationTLB measures how much a data-TLB model adds to the
// split's win on ART: the AoS layout walks ~8× the pages per useful
// field, so enabling the TLB widens the gap.
func BenchmarkAblationTLB(b *testing.B) {
	w, _ := workloads.Get("art")
	speedupWith := func(b *testing.B, tlb bool) float64 {
		cfg := cache.DefaultConfig()
		if tlb {
			cfg.TLB = cache.DefaultTLBConfig()
		}
		opt := structslim.Options{SamplePeriod: 3000, Seed: 7, Cache: &cfg}
		p, phases, err := w.Build(nil, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		_, rep, err := structslim.ProfileAndAnalyze(p, phases, opt)
		if err != nil {
			b.Fatal(err)
		}
		sr := structslim.FindStruct(rep, "f1_neuron")
		layout, err := structslim.Optimize(w.Record(), sr)
		if err != nil {
			b.Fatal(err)
		}
		run := func(split bool) uint64 {
			var l *prog.PhysLayout
			if split {
				l = layout
			}
			pp, ph, err := w.Build(l, benchScale())
			if err != nil {
				b.Fatal(err)
			}
			st, err := structslim.Run(pp, ph, opt)
			if err != nil {
				b.Fatal(err)
			}
			return st.AppWallCycles
		}
		return float64(run(false)) / float64(run(true))
	}
	b.Run("tlb-off", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s = speedupWith(b, false)
		}
		b.ReportMetric(s, "speedup")
	})
	b.Run("tlb-on", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s = speedupWith(b, true)
		}
		b.ReportMetric(s, "speedup")
	})
}

// BenchmarkIBSvsPEBS contrasts the two modeled sampling facilities on the
// same workload: sample yield per period and resulting overhead.
func BenchmarkIBSvsPEBS(b *testing.B) {
	w, _ := workloads.Get("art")
	run := func(b *testing.B, ibs bool) (samples uint64, overhead float64) {
		p, phases, err := w.Build(nil, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		res, err := structslim.ProfileRun(p, phases, structslim.Options{
			SamplePeriod: 10_000, Seed: 7, IBS: ibs,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Profile.NumSamples, res.Stats.OverheadPct()
	}
	b.Run("pebs-ll", func(b *testing.B) {
		var s uint64
		var o float64
		for i := 0; i < b.N; i++ {
			s, o = run(b, false)
		}
		b.ReportMetric(float64(s), "samples")
		b.ReportMetric(o, "overhead%")
	})
	b.Run("ibs", func(b *testing.B) {
		var s uint64
		var o float64
		for i := 0; i < b.N; i++ {
			s, o = run(b, true)
		}
		b.ReportMetric(float64(s), "samples")
		b.ReportMetric(o, "overhead%")
	})
}

// BenchmarkAblationReorderVsSplit quantifies splitting against the
// cheaper classic alternative, field reordering, on a 128-byte record
// whose hot loop reads fields at opposite ends (see
// structslim/reorder_test.go for the kernel).
func BenchmarkAblationReorderVsSplit(b *testing.B) {
	fields := make([]prog.Field, 16)
	names := make([]string, 16)
	for i := range fields {
		names[i] = string(rune('a' + i))
		fields[i] = prog.Field{Name: names[i], Size: 8}
	}
	rec := prog.MustRecord("wide", fields...)
	build := func(l *prog.PhysLayout) *prog.Program {
		bb := prog.NewBuilder("wide")
		tids := bb.RegisterLayout(l)
		arrG := make([]int, l.NumArrays())
		for ai := range arrG {
			arrG[ai] = bb.Global("arr."+l.Structs[ai].Name, 16384*int64(l.Structs[ai].Size), tids[ai])
		}
		bb.Func("main", "w.c")
		regs := make([]isa.Reg, l.NumArrays())
		for ai := range regs {
			regs[ai] = bb.R()
			bb.GAddr(regs[ai], arrG[ai])
		}
		i, x, y, rep := bb.R(), bb.R(), bb.R(), bb.R()
		bb.ForRange(i, 0, 16384, 1, func() {
			for f := 0; f < 16; f++ {
				bb.StoreField(i, l, regs, i, names[f])
			}
		})
		bb.ForRange(rep, 0, 8, 1, func() {
			bb.ForRange(i, 0, 16384, 1, func() {
				bb.LoadField(x, l, regs, i, names[0])
				bb.LoadField(y, l, regs, i, names[15])
				bb.Add(x, x, y)
			})
		})
		bb.Halt()
		return bb.MustProgram()
	}
	cycles := func(l *prog.PhysLayout) uint64 {
		st, err := structslim.Run(build(l), nil, structslim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return st.AppWallCycles
	}
	var reorderX, splitX float64
	for i := 0; i < b.N; i++ {
		base := cycles(prog.AoS(rec))
		order := append([]string{names[0], names[15]}, names[1:15]...)
		reordered, err := prog.Reordered(rec, order)
		if err != nil {
			b.Fatal(err)
		}
		split, err := prog.Split(rec, [][]string{{names[0], names[15]}, order[2:]})
		if err != nil {
			b.Fatal(err)
		}
		reorderX = float64(base) / float64(cycles(reordered))
		splitX = float64(base) / float64(cycles(split))
	}
	b.ReportMetric(reorderX, "reorder-x")
	b.ReportMetric(splitX, "split-x")
}

// BenchmarkBaselines regenerates the paper's motivating overhead
// contrast: sampling vs frequency-counting vs reuse-distance
// instrumentation, plus the sampled analysis's accuracy against exact
// ground truth.
func BenchmarkBaselines(b *testing.B) {
	var rows []tables.BaselineRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tables.NewEngine(benchOpt()).BaselineComparison("art")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Slowdown, "sampling-x")
	b.ReportMetric(rows[1].Slowdown, "counting-x")
	b.ReportMetric(rows[2].Slowdown, "reuse-x")
	b.ReportMetric(rows[0].MaxShareError, "share-err")
}

// BenchmarkRobustness sweeps the sampling period on ART and reports the
// densest and sparsest settings' overheads.
func BenchmarkRobustness(b *testing.B) {
	var rows []tables.RobustnessRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tables.NewEngine(benchOpt()).PeriodRobustness("art",
			[]uint64{1000, 10_000, 100_000}, "P", "P")
		if err != nil {
			b.Fatal(err)
		}
	}
	ok := 0
	for _, r := range rows {
		if r.AdviceOK {
			ok++
		}
	}
	b.ReportMetric(float64(ok), "periods-with-correct-advice")
	b.ReportMetric(rows[0].OverheadPct, "overhead%@1k")
	b.ReportMetric(rows[len(rows)-1].OverheadPct, "overhead%@100k")
}

// BenchmarkMergeReduction compares the reduction-tree profile merge with
// a sequential merge at increasing thread counts.
func BenchmarkMergeReduction(b *testing.B) {
	mkProfiles := func(n int) []*profile.ThreadProfile {
		tps := make([]*profile.ThreadProfile, n)
		for t := 0; t < n; t++ {
			tp := profile.NewThreadProfile(t, 10000)
			for k := 0; k < 3000; k++ {
				tp.Add(profile.Sample{
					TID: int32(t), IP: uint64(0x400000 + (k%64)*4),
					EA:      uint64(0x10000000 + t*1<<20 + k*24),
					Latency: uint32(10 + k%40), Cycle: uint64(k * 100),
				}, uint64(1+k%8))
			}
			tps[t] = tp
		}
		return tps
	}
	for _, n := range []int{4, 16, 64} {
		tps := mkProfiles(n)
		b.Run("sequential-"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := profile.MergeThreadProfiles(tps); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("tree-"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := profile.ReduceThreadProfiles(tps, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Experiment engine --------------------------------------------------------

// BenchmarkRunnerParallel contrasts the legacy sequential path — every
// artifact a one-shot engine, so Figures 7–13 re-run the seven Table 3
// pipelines from scratch — with one shared 4-worker engine regenerating
// the same artifact set through its keyed result cache. The rendered
// output must be byte-identical; the speedup comes from deduplication
// plus overlap.
func BenchmarkRunnerParallel(b *testing.B) {
	artifacts := func(w io.Writer, bench func() ([]*tables.BenchResult, error),
		splitFig func(io.Writer, string) error) error {
		results, err := bench()
		if err != nil {
			return err
		}
		tables.WriteTable3(w, results)
		tables.WriteTable4(w, results)
		for fig := 7; fig <= 13; fig++ {
			if err := splitFig(w, tables.FigureNumberFor[fig]); err != nil {
				return err
			}
		}
		return nil
	}

	var seqOut, parOut string
	var seqDur, parDur time.Duration
	b.Run("sequential", func(b *testing.B) {
		opt := benchOpt() // Parallel 0: every call its own sequential engine
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			start := time.Now()
			err := artifacts(&buf,
				func() ([]*tables.BenchResult, error) { return tables.NewEngine(opt).RunPaperBenchmarks() },
				func(w io.Writer, name string) error { return tables.NewEngine(opt).SplitFigure(w, name) })
			if err != nil {
				b.Fatal(err)
			}
			seqDur = time.Since(start)
			seqOut = buf.String()
		}
	})
	b.Run("engine-4", func(b *testing.B) {
		opt := benchOpt()
		opt.Parallel = 4
		for i := 0; i < b.N; i++ {
			eng := tables.NewEngine(opt)
			var buf bytes.Buffer
			start := time.Now()
			err := artifacts(&buf, eng.RunPaperBenchmarks, eng.SplitFigure)
			if err != nil {
				b.Fatal(err)
			}
			parDur = time.Since(start)
			parOut = buf.String()
			started, deduped := eng.Stats()
			b.ReportMetric(float64(started), "sims-run")
			b.ReportMetric(float64(deduped), "sims-deduped")
		}
		if seqDur > 0 {
			b.ReportMetric(seqDur.Seconds()/parDur.Seconds(), "speedup-vs-sequential")
		}
	})
	if seqOut != "" && parOut != "" && seqOut != parOut {
		b.Fatal("engine output differs from the sequential path")
	}
}

// TestHotPathAllocationBudget locks in the hot-path allocation wins: the
// steady-state cache access path is allocation-free, stream updates and
// new accumulation cells amortize far below one allocation per sample,
// the batch analyzer's bytes stay within a budget on a dense profile, a
// streaming report allocates independently of how many cells it folds,
// binary ingest over HTTP stays far below one allocation per sample, and
// a whole profiled run allocates a constant amount independent of how
// many memory accesses it executes (~1.4M at test scale).
func TestHotPathAllocationBudget(t *testing.T) {
	h, err := cache.NewHierarchy(cache.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, 1, 0x1000, 8, false)
	if a := testing.AllocsPerRun(200, func() { h.Access(0, 1, 0x1000, 8, false) }); a != 0 {
		t.Errorf("single-core cache hit path: %.2f allocs/access, want 0", a)
	}

	h2, err := cache.NewHierarchy(cache.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	h2.Access(0, 1, 0x2000, 8, false)
	h2.Access(1, 1, 0x2000, 8, false)
	if a := testing.AllocsPerRun(200, func() {
		h2.Access(0, 1, 0x2000, 8, false)
		h2.Access(1, 1, 0x2000, 8, false)
	}); a != 0 {
		t.Errorf("coherent shared-line hit path: %.2f allocs/access-pair, want 0", a)
	}

	tp := profile.NewThreadProfile(0, 1000)
	var k int
	if a := testing.AllocsPerRun(5000, func() {
		tp.Add(profile.Sample{IP: 0x400, EA: uint64(0x10000 + k*24)}, 1)
		k++
	}); a >= 1 {
		t.Errorf("ThreadProfile.Add: %.2f allocs/sample, want amortized < 1", a)
	}

	// A new accumulation cell is written into a pointer-free block, not a
	// heap object. AllocsPerRun truncates to whole allocations per run,
	// so each run adds many cells.
	acc := core.NewIdentityAccum(1)
	obj := &profile.ObjInfo{ID: 0, Identity: 1, Base: 0x10000}
	sm := profile.Sample{IP: 0x400, EA: obj.Base, Latency: 4}
	const cellsPerRun = 1000
	if a := testing.AllocsPerRun(50, func() {
		for i := 0; i < cellsPerRun; i++ {
			sm.EA += 8
			acc.AddSample(&sm, obj, nil)
		}
	}) / cellsPerRun; a >= 0.1 {
		t.Errorf("IdentityAccum.AddSample, new cell per sample: %.3f allocs/sample, want amortized < 0.1", a)
	}

	// The streaming report folds the sessions' cells in place: its
	// allocations follow the structures, streams and objects it reports,
	// not the cells it folds.
	hw, err := workloads.Get("health")
	if err != nil {
		t.Fatal(err)
	}
	hp, hphases, err := hw.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := structslim.ProfileRun(hp, hphases, structslim.Options{SamplePeriod: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The batch analyzer's bytes follow the cells it builds: each is
	// written once into a block that never moves, so no regrowth copies
	// it again.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := core.Analyze(hres.Profile, hp, core.Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if mb := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6; mb >= 10 {
		t.Errorf("core.Analyze, health at period 12: %.2f MB allocated, want < 10 MB", mb)
	}

	an, err := stream.New(hp, stream.Config{DropSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := stream.Batch{Session: "all", Period: 12, Objects: hres.Profile.Objects, Samples: hres.Profile.Samples}
	if err := an.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	type cellKey struct{ ip, rawOff uint64 }
	cells := make(map[cellKey]bool)
	for _, s := range hres.Profile.Samples {
		if o := hres.Profile.ObjByID(s.ObjID); o != nil {
			cells[cellKey{s.IP, s.EA - o.Base}] = true
		}
	}
	if len(cells) < 10_000 {
		t.Fatalf("health at period 12: %d cells in the session, want at least 10000", len(cells))
	}
	// Report builds once per ingest generation, so each run first ingests
	// an empty batch into the session: every measured call then rebuilds.
	if a := testing.AllocsPerRun(3, func() {
		if err := an.Ingest(stream.Batch{Session: "all", Period: 12}); err != nil {
			t.Fatal(err)
		}
		if _, err := an.Report(); err != nil {
			t.Fatal(err)
		}
	}); a >= 2000 {
		t.Errorf("Analyzer.Report over %d cells: %.0f allocs, want < 2000", len(cells), a)
	}
	// With nothing ingested since, Report returns the report it built.
	if a := testing.AllocsPerRun(3, func() {
		if _, err := an.Report(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("a repeated Analyzer.Report: %.0f allocs, want 0", a)
	}

	// Binary HTTP ingest decodes each request into a pooled arena and the
	// analyzer keeps no raw samples, so a request costs a fixed number of
	// allocations (connection, handler, queue entry), not one per sample.
	qw, err := workloads.Get("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	qp, qphases, err := qw.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	qres, err := structslim.ProfileRun(qp, qphases, structslim.Options{SamplePeriod: 53, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const batchSamples, batchesPerRequest = 512, 8
	var requests [][]byte
	pushed := 0
	for _, tp := range qres.ThreadProfiles {
		bs := profile.Split(tp, fmt.Sprintf("t%d", tp.TID), "", batchSamples)
		for len(bs) > 0 {
			n := min(batchesPerRequest, len(bs))
			var body []byte
			for i := range bs[:n] {
				body = profile.AppendBatch(body, &bs[i])
				pushed += len(bs[i].Samples)
			}
			requests = append(requests, body)
			bs = bs[n:]
		}
	}
	qan, err := stream.New(qp, stream.Config{DropSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(qan, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	perPass := testing.AllocsPerRun(3, func() {
		for _, body := range requests {
			resp, err := http.Post(ts.URL+"/v1/samples", server.ContentTypeBinary, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST /v1/samples: %d", resp.StatusCode)
			}
		}
		srv.Flush()
	})
	if a := perPass / float64(pushed); a >= 0.1 {
		t.Errorf("binary HTTP ingest: %.0f allocs per pass of %d samples = %.4f allocs/sample, want < 0.1", perPass, pushed, a)
	}

	w, err := workloads.Get("art")
	if err != nil {
		t.Fatal(err)
	}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	runAllocs := testing.AllocsPerRun(1, func() {
		if _, err := structslim.ProfileRun(p, phases, structslim.Options{SamplePeriod: 3000, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	})
	// Pre-optimization this was ~1.4 million (one escape per access);
	// now it is a few hundred, all setup and profile finalization.
	if runAllocs > 10_000 {
		t.Errorf("profiled ART run: %.0f allocs, want constant setup cost (<10000)", runAllocs)
	}
}

// --- Microbenchmarks of the substrate ----------------------------------------

// BenchmarkMachineHotPath times the per-access hot path end to end: the
// interpreter dispatch, the cache hierarchy walk, and the sampler's
// observer hook, on a profiled run of ART. allocs/op is the headline
// metric — the per-access path must not allocate.
func BenchmarkMachineHotPath(b *testing.B) {
	w, err := workloads.Get("art")
	if err != nil {
		b.Fatal(err)
	}
	p, phases, err := w.Build(nil, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	var memops uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := structslim.ProfileRun(p, phases, structslim.Options{SamplePeriod: 3000, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		memops = res.Stats.MemOps
	}
	b.ReportMetric(float64(memops), "memops/run")
}

// BenchmarkWorkloadSweep is the repository's speed gate (`make
// bench-gate`). Each paper workload is one sub-benchmark, and each of its
// rounds profiles the workload three times in a row: on the reference
// engines (switch-dispatch interpreter, no L1 hot-line shadow), on the
// default fast path, and in statistical mode. Timing the engines back to
// back inside one round keeps host drift out of their ratios. Each
// engine's best-round speedup over the reference is reported as a custom
// metric.
//
// After the sweep the benchmark fails when art's fast path is below
// artFastFloor or the geomean of the seven statistical speedups is below
// statGeomeanFloor. Both floors are in-run ratios, not wall times, so no
// host's speed is built into them; run the gate with
//
//	go test -run '^$' -bench BenchmarkWorkloadSweep -benchtime 3x .
func BenchmarkWorkloadSweep(b *testing.B) {
	const (
		artFastFloor     = 1.35
		statGeomeanFloor = 4.52
	)
	refCache := cache.DefaultConfig()
	refCache.DisableHotLine = true
	reference := structslim.Options{SamplePeriod: 3000, Seed: 7, Cache: &refCache, VM: vm.Config{Reference: true}}
	fastpath := structslim.Options{SamplePeriod: 3000, Seed: 7}
	statistical := fastpath
	statistical.VM.StatWindow = vm.DefaultStatWindow

	fastX := map[string]float64{}
	statX := map[string]float64{}
	for _, name := range workloads.PaperOrder {
		w, err := workloads.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		p, phases, err := w.Build(nil, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		timed := func(b *testing.B, opt structslim.Options) float64 {
			start := time.Now()
			if _, err := structslim.ProfileRun(p, phases, opt); err != nil {
				b.Fatal(err)
			}
			return time.Since(start).Seconds()
		}
		b.Run(name, func(b *testing.B) {
			// Go runs this body once with b.N = 1 before the measured
			// call; each call starts afresh, so the last call's ratios
			// are the ones kept.
			var bestFast, bestStat float64
			for i := 0; i < b.N; i++ {
				ref := timed(b, reference)
				bestFast = math.Max(bestFast, ref/timed(b, fastpath))
				bestStat = math.Max(bestStat, ref/timed(b, statistical))
			}
			b.ReportMetric(bestFast, "fastpath-x")
			b.ReportMetric(bestStat, "statistical-x")
			fastX[name], statX[name] = bestFast, bestStat
		})
	}

	// A -bench filter may select only some workloads; gate what ran.
	var missed []string
	if x, ok := fastX["art"]; ok {
		b.Logf("art fast path %.3fx (floor %.2fx)", x, artFastFloor)
		if x < artFastFloor {
			missed = append(missed, "art fast path")
		}
	}
	if len(statX) == len(workloads.PaperOrder) {
		logSum := 0.0
		for _, x := range statX {
			logSum += math.Log(x)
		}
		g := math.Exp(logSum / float64(len(statX)))
		b.Logf("statistical geomean %.3fx (floor %.2fx)", g, statGeomeanFloor)
		if g < statGeomeanFloor {
			missed = append(missed, "statistical geomean")
		}
	}
	if len(missed) > 0 {
		var ratios strings.Builder
		for _, name := range workloads.PaperOrder {
			if x, ok := fastX[name]; ok {
				fmt.Fprintf(&ratios, "\n  %-10s fastpath %.3fx  statistical %.3fx", name, x, statX[name])
			}
		}
		b.Fatalf("speed floor missed: %s%s", strings.Join(missed, ", "), ratios.String())
	}
}

func BenchmarkCacheAccessHit(b *testing.B) {
	h, err := cache.NewHierarchy(cache.DefaultConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	h.Access(0, 1, 0x1000, 8, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, 1, 0x1000, 8, false)
	}
}

func BenchmarkCacheAccessStream(b *testing.B) {
	h, err := cache.NewHierarchy(cache.DefaultConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, 1, uint64(i*64), 8, false)
	}
}

func BenchmarkInterpreter(b *testing.B) {
	w, _ := workloads.Get("hotspot")
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := structslim.Run(p, phases, structslim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		instrs = st.Instrs
	}
	b.ReportMetric(float64(instrs), "instrs/run")
}

func BenchmarkGCDStride(b *testing.B) {
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(i*7) * 24
	}
	for i := 0; i < b.N; i++ {
		if stride.OfAddresses(addrs) == 0 {
			b.Fatal("no stride")
		}
	}
}
