package repro_test

// End-to-end differential tests of the fast execution paths: the same
// workload profiled with the block-compiled engine + L1 hot-line shadow
// + batched sampling must produce a profile deep-equal to the reference
// engines' — and the rendered evaluation tables must be byte-identical.
// This is the acceptance gate for the whole optimization: not a single
// observable event may change.

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/tables"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/structslim"
)

// referenceOptions mirrors opt with the reference engines forced.
func referenceOptions(opt structslim.Options) structslim.Options {
	cfg := cache.DefaultConfig()
	cfg.DisableHotLine = true
	opt.Cache = &cfg
	opt.VM = vm.Config{Reference: true}
	return opt
}

// forEachEngineSelection runs f as a subtest under GOMAXPROCS 1 and 2,
// the two sides of the compiled engine's selection: with one P cache
// timing runs inline, with two it runs on its own goroutine.
func forEachEngineSelection(t *testing.T, f func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), f)
	}
}

// TestFastPathProfilesIdentical profiles a sequential and a parallel
// workload under both sampling modes with each engine, on both sides of
// the engine selection, and requires deep-equal run results: merged
// profile, per-thread profiles, and every machine statistic including
// the cache hierarchy counters.
func TestFastPathProfilesIdentical(t *testing.T) {
	for _, name := range []string{"art", "clomp"} {
		for _, ibs := range []bool{false, true} {
			mode := "pebs"
			if ibs {
				mode = "ibs"
			}
			t.Run(name+"-"+mode, func(t *testing.T) {
				w, err := workloads.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				opt := structslim.Options{SamplePeriod: 3000, Seed: 7, IBS: ibs}

				p2, phases2, err := w.Build(nil, workloads.ScaleTest)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := structslim.ProfileRun(p2, phases2, referenceOptions(opt))
				if err != nil {
					t.Fatal(err)
				}
				if ref.Profile.NumSamples == 0 {
					t.Error("no samples; test has no power")
				}

				forEachEngineSelection(t, func(t *testing.T) {
					p, phases, err := w.Build(nil, workloads.ScaleTest)
					if err != nil {
						t.Fatal(err)
					}
					fast, err := structslim.ProfileRun(p, phases, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fast.Stats, ref.Stats) {
						t.Errorf("run stats differ\nfast: %+v\nref:  %+v", fast.Stats, ref.Stats)
					}
					if !reflect.DeepEqual(fast.Profile, ref.Profile) {
						t.Errorf("merged profiles differ: %d vs %d samples",
							fast.Profile.NumSamples, ref.Profile.NumSamples)
					}
					if !reflect.DeepEqual(fast.ThreadProfiles, ref.ThreadProfiles) {
						t.Error("per-thread profiles differ")
					}
				})
			})
		}
	}
}

// TestFastPathTablesByteIdentical renders the Table 3/4 pipeline for one
// workload with the fast paths on and off and compares the bytes.
func TestFastPathTablesByteIdentical(t *testing.T) {
	w, err := workloads.Get("art")
	if err != nil {
		t.Fatal(err)
	}
	render := func(reference bool) string {
		opt := tables.Options{Scale: workloads.ScaleTest, SamplePeriod: 3000, Seed: 7, Reference: reference}
		r, err := tables.NewEngine(opt).RunBenchmark(w)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tables.WriteTable3(&buf, []*tables.BenchResult{r})
		tables.WriteTable4(&buf, []*tables.BenchResult{r})
		return buf.String()
	}
	fast, ref := render(false), render(true)
	if fast != ref {
		t.Errorf("rendered tables differ with fast paths on vs off:\n--- fast ---\n%s\n--- reference ---\n%s", fast, ref)
	}
	if fast == "" {
		t.Error("empty table output")
	}
}
