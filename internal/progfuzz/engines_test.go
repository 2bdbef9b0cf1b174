package progfuzz

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/vm"
	"repro/structslim"
)

// engine is one way to run an exact profile. The reference interpreter
// walks the full hierarchy; the compiled engine times the cache inline
// at GOMAXPROCS 1 and on its own goroutine at 2, with the L1 hot-line
// shadow on or off.
type engine struct {
	name      string
	procs     int
	reference bool
	noHotLine bool
}

var engines = []engine{
	{"reference", 2, true, true},
	{"inline", 1, false, false},
	{"inline-nohotline", 1, false, true},
	{"pipelined", 2, false, false},
	{"pipelined-nohotline", 2, false, true},
}

// fuzzCache is the paper's hierarchy shrunk to 1, 4 and 16 KiB, so that
// a generated program's 3 KiB record array evicts, writes back and
// invalidates across cores, and a machine is cheap to build.
func fuzzCache(noHotLine bool) *cache.Config {
	c := cache.DefaultConfig()
	c.Levels[0].Size, c.Levels[0].Assoc = 1<<10, 2
	c.Levels[1].Size, c.Levels[1].Assoc = 4<<10, 4
	c.Levels[2].Size, c.Levels[2].Assoc = 16<<10, 8
	c.DisableHotLine = noHotLine
	return &c
}

// profileOn runs ProfileRun on e. Every run must leave the goroutine
// count where it found it: each exit joins the pipeline's timing side.
func profileOn(t *testing.T, e engine, p *prog.Program, phases [][]vm.ThreadSpec, opt structslim.Options) (*structslim.RunResult, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(e.procs))
	opt.VM.Reference = e.reference
	opt.Cache = fuzzCache(e.noHotLine)
	before := runtime.NumGoroutine()
	res, err := structslim.ProfileRun(p, phases, opt)
	if !goroutinesBackTo(before) {
		t.Errorf("%s: %d goroutines after ProfileRun, %d before", e.name, runtime.NumGoroutine(), before)
	}
	return res, err
}

// goroutinesBackTo reports whether the goroutine count falls back to n.
// A joined goroutine may still be returning from its last statement when
// Run does, so the check allows it a bounded moment to exit.
func goroutinesBackTo(n int) bool {
	for deadline := time.Now().Add(time.Second); ; {
		if runtime.NumGoroutine() <= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
}

// sameRun reports how got differs from want in Stats, thread profiles or
// their profile-file bytes, or "" when it does not.
func sameRun(want, got *structslim.RunResult) string {
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		return fmt.Sprintf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	if len(got.ThreadProfiles) != len(want.ThreadProfiles) {
		return fmt.Sprintf("%d thread profiles, want %d", len(got.ThreadProfiles), len(want.ThreadProfiles))
	}
	for i, tp := range got.ThreadProfiles {
		wtp := want.ThreadProfiles[i]
		if !reflect.DeepEqual(tp, wtp) {
			return fmt.Sprintf("thread %d profile differs:\n got %+v\nwant %+v", i, tp.Samples, wtp.Samples)
		}
		gb, err1 := profile.AppendThread(nil, tp, "s", "")
		wb, err2 := profile.AppendThread(nil, wtp, "s", "")
		if err1 != nil || err2 != nil || string(gb) != string(wb) {
			return fmt.Sprintf("thread %d profile bytes differ (errors %v, %v)", i, err1, err2)
		}
	}
	return ""
}

// FuzzEngines holds the simulation engines to one another on generated
// programs. Under PEBS, at the input's period and seed, and under IBS,
// the five engines must fail alike or produce identical Stats, thread
// profiles and profile bytes. A statistical PEBS run at the input's
// window must not panic, must count every access the exact run retired,
// must report a simulated share in [0, 100] and a nonnegative confidence
// interval, and must sample the exact run's accesses: per thread, the
// same IPs, addresses, contexts, kinds and objects. Under IBS, which
// statistical mode does not apply to, the window must change nothing.
// maxInstrs, when nonzero, caps each phase's instructions.
func FuzzEngines(f *testing.F) {
	for _, s := range engineSeeds {
		f.Add(s.data, s.period, s.sampler, s.window, s.maxInstrs)
	}
	f.Fuzz(func(t *testing.T, data []byte, period uint16, seed uint8, window uint8, maxInstrs uint32) {
		p, phases := gen(data, false)
		if p == nil {
			return
		}
		for _, ibs := range []bool{false, true} {
			opt := structslim.Options{
				SamplePeriod: uint64(period) + 1,
				Seed:         uint64(seed),
				IBS:          ibs,
				Cache:        fuzzCache(false),
				VM:           vm.Config{MaxInstrs: uint64(maxInstrs)},
			}
			exact, exactErr := profileOn(t, engines[0], p, phases, opt)
			for _, e := range engines[1:] {
				res, err := profileOn(t, e, p, phases, opt)
				if fmt.Sprint(err) != fmt.Sprint(exactErr) {
					t.Fatalf("IBS %v: %s returned %v, %s %v", ibs, e.name, err, engines[0].name, exactErr)
				}
				if err == nil {
					if diff := sameRun(exact, res); diff != "" {
						t.Fatalf("IBS %v: %s differs from %s: %s", ibs, e.name, engines[0].name, diff)
					}
				}
			}

			opt.VM.StatWindow = int(window) + 1
			stat, err := structslim.ProfileRun(p, phases, opt)
			if fmt.Sprint(err) != fmt.Sprint(exactErr) {
				t.Fatalf("IBS %v: statistical run returned %v, exact %v", ibs, err, exactErr)
			}
			if err != nil {
				continue
			}
			if ibs {
				if diff := sameRun(exact, stat); diff != "" {
					t.Fatalf("IBS with window %d differs from exact: %s", opt.VM.StatWindow, diff)
				}
				continue
			}
			checkStatistical(t, exact, stat)
		}
	})
}

// checkStatistical holds a statistical PEBS run to the exact run of the
// same program, period and seed.
func checkStatistical(t *testing.T, exact, stat *structslim.RunResult) {
	t.Helper()
	r := stat.Stat
	if r.TotalAccesses != exact.Stats.MemOps {
		t.Fatalf("statistical run counts %d accesses, exact run %d", r.TotalAccesses, exact.Stats.MemOps)
	}
	if !(r.SimulatedPct >= 0 && r.SimulatedPct <= 100) || !(r.MissRatioCI95 >= 0) {
		t.Fatalf("simulated %v%%, miss-ratio CI %v", r.SimulatedPct, r.MissRatioCI95)
	}
	if len(stat.ThreadProfiles) != len(exact.ThreadProfiles) {
		t.Fatalf("%d thread profiles, exact run %d", len(stat.ThreadProfiles), len(exact.ThreadProfiles))
	}
	type sampled struct {
		ip, ea, ctx uint64
		write       bool
		obj         int32
	}
	for i, tp := range stat.ThreadProfiles {
		want := exact.ThreadProfiles[i].Samples
		if len(tp.Samples) != len(want) {
			t.Fatalf("thread %d: %d samples, exact run %d", i, len(tp.Samples), len(want))
		}
		for k, s := range tp.Samples {
			w := want[k]
			if (sampled{s.IP, s.EA, s.Ctx, s.Write, s.ObjID}) != (sampled{w.IP, w.EA, w.Ctx, w.Write, w.ObjID}) {
				t.Fatalf("thread %d sample %d: %+v, exact run %+v", i, k, s, w)
			}
		}
	}
}
