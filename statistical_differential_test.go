package repro_test

// Differential harness for sampled-window statistical simulation
// (vm.Config.StatWindow). Statistical mode is an approximation, not
// an exact twin: skipped accesses charge an estimated latency, so sample
// latencies, levels, and timestamps drift from exact mode. What must NOT
// drift — and what this suite hard-gates on all seven paper workloads —
// is the advice: the set of analyzed structures in ranked order and each
// structure's SplitAdvice partition. The quantified divergence of the
// underlying measurements (latency totals, miss ratios, sample counts)
// is logged per workload for EXPERIMENTS.md.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/structslim"
)

// adviceFingerprint canonicalizes what the gate protects: analyzed
// structures in rank order, each with its advice partition (groups of
// offsets, order-independent within and across groups).
func adviceFingerprint(rep *core.Report) string {
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

func l1MissRatio(st vm.Stats) float64 {
	if len(st.Cache.Levels) == 0 || st.Cache.Levels[0].Accesses == 0 {
		return 0
	}
	return float64(st.Cache.Levels[0].Misses) / float64(st.Cache.Levels[0].Accesses)
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// TestStatisticalAdviceMatchesExact is the hard gate: on every paper
// workload, statistical mode must produce the same analyzed-structure
// ranking and the same SplitAdvice partitions as exact mode, with a
// populated error report that accounts for every access.
func TestStatisticalAdviceMatchesExact(t *testing.T) {
	for _, name := range workloads.PaperOrder {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := structslim.Options{SamplePeriod: 3000, Seed: 7}

			p, phases, err := w.Build(nil, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			exactRes, exactRep, err := structslim.ProfileAndAnalyze(p, phases, opt)
			if err != nil {
				t.Fatal(err)
			}

			statOpt := opt
			statOpt.VM.StatWindow = vm.DefaultStatWindow
			p2, phases2, err := w.Build(nil, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			statRes, statRep, err := structslim.ProfileAndAnalyze(p2, phases2, statOpt)
			if err != nil {
				t.Fatal(err)
			}

			// Hard gate: identical advice ranking and partitions.
			exactFP, statFP := adviceFingerprint(exactRep), adviceFingerprint(statRep)
			if exactFP != statFP {
				t.Errorf("split advice diverged\nexact: %s\nstat:  %s", exactFP, statFP)
			}
			if len(exactRep.Structures) == 0 {
				t.Error("exact analysis found no structures; test has no power")
			}

			// Error report: populated and self-consistent.
			r := statRes.Stat
			if r == nil {
				t.Fatal("statistical run produced no error report")
			}
			if r.Windows == 0 || r.SkippedAccesses == 0 {
				t.Errorf("no fast-forward windows armed (windows=%d skipped=%d)", r.Windows, r.SkippedAccesses)
			}
			if r.SimulatedAccesses+r.SkippedAccesses != r.TotalAccesses {
				t.Errorf("access accounting broken: %d simulated + %d skipped != %d total",
					r.SimulatedAccesses, r.SkippedAccesses, r.TotalAccesses)
			}
			if r.SimulatedPct <= 0 || r.SimulatedPct >= 100 {
				t.Errorf("simulated fraction %.2f%% out of range", r.SimulatedPct)
			}
			if r.Samples == 0 {
				t.Error("no samples recorded")
			}
			if exactRes.Stat != nil {
				t.Error("exact run unexpectedly produced a statistical report")
			}

			// Program semantics must be exact: same instruction and
			// access counts retired either way.
			if statRes.Stats.Instrs != exactRes.Stats.Instrs || statRes.Stats.MemOps != exactRes.Stats.MemOps {
				t.Errorf("program semantics drifted: instrs %d vs %d, memops %d vs %d",
					statRes.Stats.Instrs, exactRes.Stats.Instrs,
					statRes.Stats.MemOps, exactRes.Stats.MemOps)
			}

			// Quantified divergence of the approximate measurements.
			t.Logf("%s: simulated %.2f%% of %d accesses (%d windows, W=%d)",
				name, r.SimulatedPct, r.TotalAccesses, r.Windows, r.Window)
			t.Logf("%s: samples exact=%d stat=%d; latency-share rel.err=%.4f; L1 miss ratio exact=%.4f stat=%.4f; stride confidence=%.4f",
				name, exactRes.Profile.NumSamples, statRes.Profile.NumSamples,
				relErr(float64(statRes.Profile.TotalLatency), float64(exactRes.Profile.TotalLatency)),
				l1MissRatio(exactRes.Stats), l1MissRatio(statRes.Stats), r.StrideConfidence)
		})
	}
}

// TestStatisticalSampledAddressesExact checks the mechanism behind the
// gate: sampling is access-count driven, so the statistical run records
// samples at the same accesses with the same addresses, IPs, and
// contexts — only latency, level, and timestamp may differ.
func TestStatisticalSampledAddressesExact(t *testing.T) {
	w, err := workloads.Get("art")
	if err != nil {
		t.Fatal(err)
	}
	opt := structslim.Options{SamplePeriod: 3000, Seed: 7}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := structslim.ProfileRun(p, phases, opt)
	if err != nil {
		t.Fatal(err)
	}
	statOpt := opt
	statOpt.VM.StatWindow = vm.DefaultStatWindow
	p2, phases2, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	stat, err := structslim.ProfileRun(p2, phases2, statOpt)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Profile.NumSamples != stat.Profile.NumSamples {
		t.Fatalf("sample counts differ: exact=%d stat=%d", exact.Profile.NumSamples, stat.Profile.NumSamples)
	}
	if exact.Profile.NumSamples == 0 {
		t.Fatal("no samples; test has no power")
	}
	for i := range exact.Profile.Samples {
		e, s := exact.Profile.Samples[i], stat.Profile.Samples[i]
		if e.TID != s.TID || e.IP != s.IP || e.EA != s.EA || e.Write != s.Write ||
			e.ObjID != s.ObjID || e.Ctx != s.Ctx {
			t.Fatalf("sample %d identity differs:\nexact: %+v\nstat:  %+v", i, e, s)
		}
	}
}

// TestStatisticalFallsBackExact pins the modes that must ignore the
// statistical window: IBS (instruction-gated gaps have no access budget
// to split) and the reference engine. Both must be byte-identical to
// their exact runs.
func TestStatisticalFallsBackExact(t *testing.T) {
	w, err := workloads.Get("art")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*structslim.Options)
	}{
		{"ibs", func(o *structslim.Options) { o.IBS = true }},
		{"reference", func(o *structslim.Options) {
			cfg := cache.DefaultConfig()
			cfg.DisableHotLine = true
			o.Cache = &cfg
			o.VM = vm.Config{Reference: true}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := structslim.Options{SamplePeriod: 3000, Seed: 7}
			tc.mut(&opt)
			p, phases, err := w.Build(nil, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := structslim.ProfileRun(p, phases, opt)
			if err != nil {
				t.Fatal(err)
			}
			statOpt := opt
			statOpt.VM.StatWindow = vm.DefaultStatWindow
			p2, phases2, err := w.Build(nil, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			stat, err := structslim.ProfileRun(p2, phases2, statOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exact.Stats, stat.Stats) {
				t.Errorf("stats differ\nexact: %+v\nstat:  %+v", exact.Stats, stat.Stats)
			}
			if !reflect.DeepEqual(exact.Profile, stat.Profile) {
				t.Error("profiles differ")
			}
			if stat.Stat == nil {
				t.Error("error report missing (should report zero windows)")
			} else if stat.Stat.Windows != 0 {
				t.Errorf("windows armed in a mode that must stay exact: %d", stat.Stat.Windows)
			}
		})
	}
}
