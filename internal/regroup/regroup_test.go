package regroup_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/prog"
	"repro/internal/regroup"
	"repro/internal/workloads"
	"repro/structslim"
)

// buildXYZ builds the canonical regrouping case: arrays x and y always
// read together, z read alone.
func buildXYZ(n int64) *prog.Program {
	b := prog.NewBuilder("xyz")
	xG := b.Global("x", n*8, -1)
	yG := b.Global("y", n*8, -1)
	zG := b.Global("z", n*8, -1)
	b.Func("main", "xyz.c")
	x, y, z := b.R(), b.R(), b.R()
	b.GAddr(x, xG)
	b.GAddr(y, yG)
	b.GAddr(z, zG)
	i, a, c, rep := b.R(), b.R(), b.R(), b.R()
	// init
	b.AtLine(5)
	b.ForRange(i, 0, n, 1, func() {
		b.Store(i, x, i, 8, 0, 8)
		b.Store(i, y, i, 8, 0, 8)
		b.Store(i, z, i, 8, 0, 8)
	})
	// hot loop: x[i] + y[i]
	b.AtLine(10)
	b.ForRange(rep, 0, 12, 1, func() {
		b.ForRange(i, 0, n, 1, func() {
			b.AtLine(11)
			b.Load(a, x, i, 8, 0, 8)
			b.Load(c, y, i, 8, 0, 8)
			b.Add(a, a, c)
		})
	})
	// separate loop: z alone
	b.AtLine(20)
	b.ForRange(rep, 0, 12, 1, func() {
		b.ForRange(i, 0, n, 1, func() {
			b.AtLine(21)
			b.Load(a, z, i, 8, 0, 8)
		})
	})
	b.Halt()
	return b.MustProgram()
}

func TestRegroupXY(t *testing.T) {
	p := buildXYZ(16384)
	res, err := structslim.ProfileRun(p, nil, structslim.Options{SamplePeriod: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := regroup.Analyze(res.Profile, p, regroup.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 3 {
		t.Fatalf("candidates = %+v, want x,y,z", rep.Candidates)
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %+v, want exactly {x,y}", rep.Groups)
	}
	g := rep.Groups[0]
	if len(g) != 2 || g[0].Name != "x" || g[1].Name != "y" {
		t.Errorf("group = %+v, want x,y", g)
	}
	for _, c := range g {
		if c.Stride != 8 {
			t.Errorf("candidate %s stride = %d, want 8", c.Name, c.Stride)
		}
	}
	var buf bytes.Buffer
	rep.RenderText(&buf)
	out := buf.String()
	if !strings.Contains(out, "interleave") || !strings.Contains(out, "x") {
		t.Errorf("rendered advice incomplete:\n%s", out)
	}
}

// TestRegroupRoundTripWithSplitART: after splitting ART per StructSlim's
// advice, the {I} and {U} arrays are co-accessed in the same loop — the
// regrouping analysis must NOT advise re-merging them because the split
// already placed them in one struct ({I,U}); but the split P array,
// accessed alone, must not join anything.
func TestRegroupOnSplitART(t *testing.T) {
	w, err := workloads.Get("art")
	if err != nil {
		t.Fatal(err)
	}
	opt := structslim.Options{SamplePeriod: 2000, Seed: 4}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	_, rep0, err := structslim.ProfileAndAnalyze(p, phases, opt)
	if err != nil {
		t.Fatal(err)
	}
	sr := structslim.FindStruct(rep0, "f1_neuron")
	layout, err := structslim.Optimize(w.Record(), sr)
	if err != nil {
		t.Fatal(err)
	}

	sp, sphases, err := w.Build(layout, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := structslim.ProfileRun(sp, sphases, opt)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := regroup.Analyze(res.Profile, sp, regroup.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The advised split already groups co-accessed fields, so any
	// regrouping group must not contain the P array (P is accessed
	// alone in its dominant loops).
	for _, g := range rr.Groups {
		for _, c := range g {
			if strings.Contains(c.Name, "_neuron") && strings.Contains(c.Name, "P") {
				t.Errorf("regrouping pulled the P-only array into a group: %+v", g)
			}
		}
	}
}

func TestRegroupNoOpportunity(t *testing.T) {
	// A single array: nothing to regroup.
	b := prog.NewBuilder("solo")
	g := b.Global("a", 8192*8, -1)
	b.Func("main", "s.c")
	base, i, v := b.R(), b.R(), b.R()
	b.GAddr(base, g)
	b.ForRange(i, 0, 8192, 1, func() {
		b.Load(v, base, i, 8, 0, 8)
	})
	b.Halt()
	p := b.MustProgram()
	res, err := structslim.ProfileRun(p, nil, structslim.Options{SamplePeriod: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := regroup.Analyze(res.Profile, p, regroup.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 0 {
		t.Errorf("groups = %+v, want none", rep.Groups)
	}
	var buf bytes.Buffer
	rep.RenderText(&buf)
	if !strings.Contains(buf.String(), "No regrouping opportunity") {
		t.Error("missing no-opportunity message")
	}
}

func TestRegroupExcludesAggregateStrides(t *testing.T) {
	// An array-of-structs with a 128-byte stride is a splitting
	// candidate, not a regrouping candidate.
	b := prog.NewBuilder("fat")
	g := b.Global("fat", 8192*128, -1)
	d := b.Global("dense", 8192*8, -1)
	b.Func("main", "f.c")
	base, dense, i, v := b.R(), b.R(), b.R(), b.R()
	b.GAddr(base, g)
	b.GAddr(dense, d)
	b.ForRange(i, 0, 8192, 1, func() {
		b.Load(v, base, i, 128, 0, 8)
		b.Load(v, dense, i, 8, 0, 8)
	})
	b.Halt()
	p := b.MustProgram()
	res, err := structslim.ProfileRun(p, nil, structslim.Options{SamplePeriod: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := regroup.Analyze(res.Profile, p, regroup.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Candidates {
		if c.Name == "fat" {
			t.Errorf("aggregate-strided array admitted as candidate: %+v", c)
		}
	}
	if len(rep.Groups) != 0 {
		t.Errorf("groups = %+v, want none (only one dense candidate)", rep.Groups)
	}
}

func TestRegroupNilArgs(t *testing.T) {
	if _, err := regroup.Analyze(nil, nil, regroup.Options{}); err == nil {
		t.Error("nil args accepted")
	}
}

// TestRegroupZeroMinLdKeepsColdArrays: zero Options keep a dense array
// however small its latency share, as a zero core.Options.MinLd keeps
// every structure.
func TestRegroupZeroMinLdKeepsColdArrays(t *testing.T) {
	b := prog.NewBuilder("cold")
	hotG := b.Global("hot", 8192*8, -1)
	coldG := b.Global("cold", 1024*8, -1)
	b.Func("main", "c.c")
	hot, cold, i, rep, v := b.R(), b.R(), b.R(), b.R(), b.R()
	b.GAddr(hot, hotG)
	b.GAddr(cold, coldG)
	b.ForRange(i, 0, 1024, 1, func() {
		b.Load(v, cold, i, 8, 0, 8)
	})
	b.ForRange(rep, 0, 40, 1, func() {
		b.ForRange(i, 0, 8192, 1, func() {
			b.Load(v, hot, i, 8, 0, 8)
		})
	})
	b.Halt()
	p := b.MustProgram()
	res, err := structslim.ProfileRun(p, nil, structslim.Options{SamplePeriod: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := regroup.Analyze(res.Profile, p, regroup.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rr.Candidates {
		if c.Name == "cold" {
			if c.Ld >= 0.01 {
				t.Fatalf("cold array's latency share = %.4f, the case needs it below 1%%", c.Ld)
			}
			return
		}
	}
	t.Errorf("candidates = %+v, want the cold array kept", rr.Candidates)
}
