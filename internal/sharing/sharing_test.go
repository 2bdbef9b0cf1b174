package sharing_test

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/prog"
	"repro/internal/sharing"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/structslim"
)

// analyzeWorkload builds a workload at test scale and runs the static
// sharing analysis over it.
func analyzeWorkload(t *testing.T, w workloads.Workload) (*prog.Program, []workloads.Phase, *sharing.Analysis) {
	t.Helper()
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatalf("build %s: %v", w.Name(), err)
	}
	a, err := sharing.Analyze(p, phases, int64(cache.DefaultConfig().LineSize))
	if err != nil {
		t.Fatalf("sharing analyze %s: %v", w.Name(), err)
	}
	return p, phases, a
}

func getWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDeriveRoles(t *testing.T) {
	phases := [][]vm.ThreadSpec{
		{{Fn: 0}}, // single thread: no role
		{
			{Fn: 1, Args: []int64{0, 4}, Core: 0},
			{Fn: 1, Args: []int64{1, 4}, Core: 1},
			{Fn: 1, Args: []int64{2, 4}, Core: 2},
			{Fn: 1, Args: []int64{3, 4}, Core: 3},
		},
		{ // two functions sharing the phase: both roles non-exclusive
			{Fn: 2, Args: []int64{7}, Core: 0},
			{Fn: 2, Args: []int64{5}, Core: 1},
			{Fn: 2, Args: []int64{9}, Core: 2},
			{Fn: 3, Core: 3},
			{Fn: 3, Core: 0},
		},
	}
	roles := sharing.DeriveRoles(phases)
	if len(roles) != 3 {
		t.Fatalf("roles = %d, want 3", len(roles))
	}
	r := roles[0]
	if r.Phase != 1 || r.Fn != 1 || r.Threads != 4 || !r.Exclusive {
		t.Fatalf("role 0 = %+v, want exclusive phase-1 fn-1 x4", r)
	}
	if len(r.Args) != 2 {
		t.Fatalf("role 0 args = %d, want 2", len(r.Args))
	}
	if a := r.Args[0]; a.Shape != sharing.ArgTid || a.Value != 0 || a.Step != 1 {
		t.Errorf("arg 0 = %+v, want tid progression 0+1*i", a)
	}
	if a := r.Args[1]; a.Shape != sharing.ArgUniform || a.Value != 4 {
		t.Errorf("arg 1 = %+v, want uniform 4", a)
	}
	if roles[1].Exclusive || roles[2].Exclusive {
		t.Errorf("mixed-function phase produced exclusive roles: %+v, %+v", roles[1], roles[2])
	}
	if a := roles[1].Args[0]; a.Shape != sharing.ArgOpaque {
		t.Errorf("non-affine arg classified %+v, want opaque", a)
	}
}

// TestFalseshareClassification pins the analyzer's verdict on the
// planted fixture: both counters are provably thread-private with the
// dense 16-byte element stride, which is below the line size, so the
// stats array is flagged with keep-apart edges for every field pair.
func TestFalseshareClassification(t *testing.T) {
	_, _, a := analyzeWorkload(t, getWorkload(t, "falseshare"))
	if len(a.Roles) != 1 {
		t.Fatalf("roles = %d, want 1 (the x4 worker phase)", len(a.Roles))
	}
	for _, name := range []string{"hits", "ticks"} {
		c := findClaim(t, a, name)
		if c.Class != sharing.ClassPrivate || c.Conf != sharing.Exact {
			t.Errorf("%s classified %s/%s, want private/exact", name, c.Class, c.Conf)
		}
		if !c.WritesPrivate || c.WriteTidStride != 16 {
			t.Errorf("%s: WritesPrivate=%v stride=%d, want private stride 16", name, c.WritesPrivate, c.WriteTidStride)
		}
	}
	if len(a.FalseShares) != 1 {
		t.Fatalf("false shares = %d, want 1", len(a.FalseShares))
	}
	fs := a.FalseShares[0]
	if fs.Stride != 16 || fs.LineSize != 64 || len(fs.Fields) != 2 {
		t.Fatalf("finding = stride %d line %d fields %d, want 16/64/2", fs.Stride, fs.LineSize, len(fs.Fields))
	}
	// Self-pairs for both fields plus the cross edge.
	if len(fs.Edges) != 3 {
		t.Fatalf("keep-apart edges = %d, want 3", len(fs.Edges))
	}
	cross := false
	for _, e := range fs.Edges {
		if e.NameA == "hits" && e.NameB == "ticks" {
			cross = true
			if e.OffA != 0 || e.OffB != 8 {
				t.Errorf("cross edge offsets = %d/%d, want 0/8", e.OffA, e.OffB)
			}
		}
	}
	if !cross {
		t.Error("no hits--ticks keep-apart edge")
	}
	if !strings.Contains(fs.Advice, "pad struct _Stat") {
		t.Errorf("advice = %q, want padding advice naming the struct", fs.Advice)
	}
}

// TestPaddedFixtureClean: with the advice applied (one slot per line)
// the same kernel must produce no finding — the claims stay private and
// exact, the stride just clears the line.
func TestPaddedFixtureClean(t *testing.T) {
	_, _, a := analyzeWorkload(t, workloads.PaddedFalseShare(64))
	c := findClaim(t, a, "hits")
	if c.Class != sharing.ClassPrivate || c.Conf != sharing.Exact || c.WriteTidStride != 64 {
		t.Fatalf("padded hits = %s/%s stride %d, want private/exact stride 64", c.Class, c.Conf, c.WriteTidStride)
	}
	if len(a.FalseShares) != 0 {
		t.Fatalf("padded layout still predicts false sharing: %+v", a.FalseShares[0])
	}
}

func findClaim(t *testing.T, a *sharing.Analysis, field string) *sharing.FieldClaim {
	t.Helper()
	for _, c := range a.Claims {
		if c.FieldName == field {
			return c
		}
	}
	t.Fatalf("no claim for field %q (have %d claims)", field, len(a.Claims))
	return nil
}

// TestCrossCheckWorkloads is the acceptance gate: on clomp,
// streamcluster, and falseshare, every exact static claim must be
// consistent with the coherence observer (zero mismatches), and the
// planted fixture's prediction must be confirmed by observed
// write-invalidation traffic.
func TestCrossCheckWorkloads(t *testing.T) {
	for _, name := range []string{"clomp", "streamcluster", "falseshare"} {
		t.Run(name, func(t *testing.T) {
			p, phases, a := analyzeWorkload(t, getWorkload(t, name))
			obs, err := sharing.VerifyRun(p, phases, cache.DefaultConfig())
			if err != nil {
				t.Fatalf("verify run: %v", err)
			}
			rep := sharing.CrossCheck(a, obs)
			if rep.Failed() {
				var b strings.Builder
				rep.RenderText(&b)
				t.Fatalf("cross-check failed:\n%s", b.String())
			}
			switch name {
			case "falseshare":
				if len(a.FalseShares) != 1 || rep.Confirmed < 1 {
					t.Fatalf("fixture: %d predictions, %d confirmed; want the planted pair confirmed",
						len(a.FalseShares), rep.Confirmed)
				}
			case "clomp":
				// part_sums: one 8-byte slot per thread, stride below the
				// line — a real prediction on a paper workload, and the
				// partial-reduction writes do collide on a line.
				if len(a.FalseShares) == 0 {
					t.Fatal("clomp: no false-sharing prediction on part_sums")
				}
				if rep.Confirmed < 1 {
					t.Error("clomp: part_sums prediction not confirmed by coherence traffic")
				}
			case "streamcluster":
				// Sequential: no roles, nothing claimed, trivially consistent.
				if len(a.Roles) != 0 {
					t.Fatalf("streamcluster: %d roles on a sequential workload", len(a.Roles))
				}
			}
		})
	}
}

// TestPaddingSpeedsUp measures the advice: the padded layout must beat
// the dense one on wall cycles and slash the write-invalidation storm.
func TestPaddingSpeedsUp(t *testing.T) {
	run := func(w workloads.Workload) vm.Stats {
		p, phases, err := w.Build(nil, workloads.ScaleTest)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		st, err := structslim.Run(p, phases, structslim.Options{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return st
	}
	dense := run(getWorkload(t, "falseshare"))
	padded := run(workloads.PaddedFalseShare(64))
	if padded.AppWallCycles >= dense.AppWallCycles {
		t.Errorf("padding did not speed up the kernel: dense %d cycles, padded %d",
			dense.AppWallCycles, padded.AppWallCycles)
	}
	if dense.Cache.WriteInvalidations == 0 {
		t.Fatal("dense layout produced no write-invalidations; fixture is not false sharing")
	}
	if padded.Cache.WriteInvalidations*10 >= dense.Cache.WriteInvalidations {
		t.Errorf("write-invalidations not slashed: dense %d, padded %d",
			dense.Cache.WriteInvalidations, padded.Cache.WriteInvalidations)
	}
	t.Logf("dense %d cycles / %d write-inv, padded %d cycles / %d write-inv (speedup %.2fx)",
		dense.AppWallCycles, dense.Cache.WriteInvalidations,
		padded.AppWallCycles, padded.Cache.WriteInvalidations,
		float64(dense.AppWallCycles)/float64(padded.AppWallCycles))
}
