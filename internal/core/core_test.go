package core

// Unit tests drive the analyzer with hand-constructed profiles and a tiny
// program, independent of the simulator, so each pipeline stage's policy
// is pinned down directly. Whole-system behaviour is covered by the
// structslim, workloads, and tables packages.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/prog"
)

// testProgram builds one function with two loops; returns the program and
// the IPs of the load instruction inside each loop plus one outside.
func testProgram(t testing.TB) (p *prog.Program, loopAIP, loopBIP, outsideIP uint64, typeID int) {
	t.Helper()
	b := prog.NewBuilder("unit")
	rec := prog.MustRecord("pair",
		prog.Field{Name: "x", Size: 8},
		prog.Field{Name: "y", Size: 8},
	)
	st := prog.AoS(rec).Structs[0]
	typeID = b.Type(st)
	g := b.Global("arr", 1024*16, typeID)
	b.Func("main", "u.c")
	base, iv, v := b.R(), b.R(), b.R()
	b.GAddr(base, g)
	b.AtLine(10)
	b.ForRange(iv, 0, 100, 1, func() {
		b.AtLine(11)
		b.Load(v, base, iv, 16, 0, 8)
	})
	b.AtLine(20)
	b.ForRange(iv, 0, 100, 1, func() {
		b.AtLine(21)
		b.Load(v, base, iv, 16, 8, 8)
	})
	b.AtLine(30)
	b.Load(v, base, isa.RZ, 1, 0, 8)
	b.Halt()
	p = b.MustProgram()

	var loads []uint64
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				if blk.Instrs[i].Op == isa.Load {
					loads = append(loads, blk.Instrs[i].IP)
				}
			}
		}
	}
	if len(loads) != 3 {
		t.Fatalf("loads = %d, want 3", len(loads))
	}
	return p, loads[0], loads[1], loads[2], typeID
}

// mkProfile assembles a profile whose samples hit the object at the given
// (ip, element, offset, latency) tuples.
func mkProfile(base uint64, identity uint64, typeID int32, samples []profile.Sample) *profile.Profile {
	p := &profile.Profile{
		Period:  1000,
		Threads: 1,
		Streams: make(map[profile.StreamKey]*profile.StreamStat),
		Objects: []profile.ObjInfo{{
			ID: 0, Name: "arr", Base: base, Size: 1024 * 16,
			Identity: identity, TypeID: typeID,
		}},
	}
	for _, s := range samples {
		p.Samples = append(p.Samples, s)
		p.NumSamples++
		p.TotalLatency += uint64(s.Latency)
		key := profile.StreamKey{IP: s.IP, Identity: identity}
		st := p.Streams[key]
		if st == nil {
			st = &profile.StreamStat{IP: s.IP, Identity: identity}
			p.Streams[key] = st
		}
		st.Observe(s.EA, s.Latency, s.Write, s.ObjID)
	}
	p.AppCycles = 1_000_000
	p.OverheadCycles = 20_000
	return p
}

const objBase = uint64(0x10000000)

func samplesFor(ip uint64, offset uint64, elems []int, latency uint32) []profile.Sample {
	var out []profile.Sample
	for i, e := range elems {
		out = append(out, profile.Sample{
			IP: ip, EA: objBase + uint64(e)*16 + offset,
			Latency: latency, Level: 3, Cycle: uint64(i * 100), ObjID: 0,
		})
	}
	return out
}

func TestAnalyzePipeline(t *testing.T) {
	p, ipA, ipB, ipOut, typeID := testProgram(t)
	var samples []profile.Sample
	samples = append(samples, samplesFor(ipA, 0, []int{1, 3, 6, 9, 12}, 100)...) // x in loop A
	samples = append(samples, samplesFor(ipB, 8, []int{2, 4, 7, 11, 13}, 50)...) // y in loop B
	samples = append(samples, samplesFor(ipOut, 0, []int{0}, 10)...)             // x outside loops
	prof := mkProfile(objBase, 77, int32(typeID), samples)

	rep, err := Analyze(prof, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Structures) != 1 {
		t.Fatalf("structures = %d", len(rep.Structures))
	}
	sr := rep.Structures[0]
	if sr.TypeName != "pair" || sr.TrueSize != 16 {
		t.Errorf("debug info: %s/%d", sr.TypeName, sr.TrueSize)
	}
	if sr.InferredSize != 16 {
		t.Errorf("inferred size = %d, want 16", sr.InferredSize)
	}
	if sr.Ld < 0.999 {
		t.Errorf("l_d = %v, want 1 (only structure)", sr.Ld)
	}

	// Field table: x = 5*100 + 10, y = 250.
	if len(sr.Fields) != 2 {
		t.Fatalf("fields = %+v", sr.Fields)
	}
	if sr.Fields[0].Name != "x" || sr.Fields[0].LatencySum != 510 {
		t.Errorf("field x = %+v", sr.Fields[0])
	}
	if sr.Fields[1].Name != "y" || sr.Fields[1].LatencySum != 250 {
		t.Errorf("field y = %+v", sr.Fields[1])
	}

	// Loop table: two real loops plus the outside bucket; sorted by
	// latency.
	if len(sr.Loops) != 3 {
		t.Fatalf("loops = %+v", sr.Loops)
	}
	if sr.Loops[0].LatencySum != 500 || sr.Loops[0].FieldNames[0] != "x" {
		t.Errorf("hottest loop = %+v", sr.Loops[0])
	}
	var outside *LoopReport
	for i := range sr.Loops {
		if sr.Loops[i].Loop == nil {
			outside = &sr.Loops[i]
		}
	}
	if outside == nil || outside.LatencySum != 10 {
		t.Errorf("outside-loop bucket = %+v", outside)
	}

	// x and y never co-occur in a loop: affinity 0, two advice groups.
	if a := sr.Affinity.Affinity(0, 8); a != 0 {
		t.Errorf("A(x,y) = %v, want 0", a)
	}
	if sr.Advice == nil || len(sr.Advice.Groups) != 2 || !sr.Advice.Complete {
		t.Fatalf("advice = %+v", sr.Advice)
	}

	// Streams carry strides and offsets.
	for _, st := range sr.Streams {
		if st.IP == ipA && (st.Stride != 32 && st.Stride != 16) {
			// Elements 1,3,6,9,12 → deltas 2,3,3,3 ×16 → gcd 16.
			t.Errorf("stream A stride = %d", st.Stride)
		}
		if st.IP == ipB && st.Offset != 8 {
			t.Errorf("stream B offset = %d", st.Offset)
		}
	}
	if rep.OverheadPct != 2.0 {
		t.Errorf("overhead = %v, want 2", rep.OverheadPct)
	}
}

func TestTopKAndMinLdFiltering(t *testing.T) {
	p, ipA, _, _, typeID := testProgram(t)
	// Three identities with descending latency; TopK=1 keeps only the
	// first.
	prof := mkProfile(objBase, 1, int32(typeID), samplesFor(ipA, 0, []int{1, 2, 3}, 1000))
	// Add two more objects/identities by hand.
	for id := int32(1); id <= 2; id++ {
		base := objBase + uint64(id)*0x100000
		prof.Objects = append(prof.Objects, profile.ObjInfo{
			ID: id, Name: "other", Base: base, Size: 4096, Identity: uint64(10 + id), TypeID: -1,
		})
		lat := uint32(100 / id)
		for e := 0; e < 3; e++ {
			s := profile.Sample{IP: ipA, EA: base + uint64(e*8), Latency: lat, ObjID: id}
			prof.Samples = append(prof.Samples, s)
			prof.NumSamples++
			prof.TotalLatency += uint64(lat)
		}
	}

	rep, err := Analyze(prof, p, Options{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Structures) != 1 {
		t.Fatalf("structures = %d, want 1 (TopK)", len(rep.Structures))
	}
	if len(rep.Ranking) != 3 {
		t.Fatalf("ranking = %d, want 3", len(rep.Ranking))
	}
	if !rep.Ranking[0].Analyzed || rep.Ranking[1].Analyzed {
		t.Error("Analyzed flags wrong")
	}
	// Ranking is sorted by latency.
	for i := 1; i < len(rep.Ranking); i++ {
		if rep.Ranking[i].LatencySum > rep.Ranking[i-1].LatencySum {
			t.Error("ranking not sorted")
		}
	}

	// MinLd filters even within TopK.
	rep2, err := Analyze(prof, p, Options{TopK: 3, MinLd: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Structures) != 1 {
		t.Errorf("MinLd=0.5 kept %d structures", len(rep2.Structures))
	}

	// A TopK past the number of structures keeps them all.
	rep3, err := Analyze(prof, p, Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Structures) != 3 {
		t.Errorf("TopK=10 kept %d structures", len(rep3.Structures))
	}
}

func TestIrregularOnlyStructure(t *testing.T) {
	p, ipA, _, _, typeID := testProgram(t)
	// All samples at wildly irregular addresses: GCD degenerates to 1,
	// so no size and no field analysis — but no crash and streams are
	// still reported.
	var samples []profile.Sample
	for i, ea := range []uint64{objBase + 3, objBase + 10, objBase + 24, objBase + 91, objBase + 104} {
		samples = append(samples, profile.Sample{IP: ipA, EA: ea, Latency: 10, Cycle: uint64(i), ObjID: 0})
	}
	prof := mkProfile(objBase, 5, int32(typeID), samples)
	rep, err := Analyze(prof, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sr := rep.Structures[0]
	if sr.InferredSize != 0 {
		t.Errorf("inferred size = %d, want 0 (irregular)", sr.InferredSize)
	}
	if sr.Advice != nil {
		t.Error("advice fabricated for irregular structure")
	}
	if len(sr.Streams) != 1 {
		t.Errorf("streams = %d", len(sr.Streams))
	}
}

func TestFieldNameFallsBackPositional(t *testing.T) {
	p, ipA, _, _, _ := testProgram(t)
	// No debug type (TypeID -1): names render as "+off"; advice exists
	// but is not Complete.
	prof := mkProfile(objBase, 9, -1, samplesFor(ipA, 8, []int{1, 2, 3, 4}, 10))
	rep, err := Analyze(prof, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sr := rep.Structures[0]
	if sr.TypeName != "" || sr.TrueSize != 0 {
		t.Fatalf("unexpected debug info: %+v", sr)
	}
	if len(sr.Fields) != 1 || sr.Fields[0].Name != "+8" {
		t.Errorf("fields = %+v, want positional +8", sr.Fields)
	}
	if sr.Advice == nil || sr.Advice.Complete {
		t.Errorf("advice = %+v, want incomplete", sr.Advice)
	}
}

func TestUnattributedSamplesIgnored(t *testing.T) {
	p, ipA, _, _, typeID := testProgram(t)
	prof := mkProfile(objBase, 3, int32(typeID), samplesFor(ipA, 0, []int{1, 2}, 10))
	// A stack-like sample with no object.
	prof.Samples = append(prof.Samples, profile.Sample{IP: ipA, EA: 0x7fff0000, Latency: 999, ObjID: -1})
	prof.NumSamples++
	prof.TotalLatency += 999
	rep, err := Analyze(prof, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranking) != 1 {
		t.Fatalf("ranking = %d", len(rep.Ranking))
	}
	// l_d is computed against *total* latency including unattributed.
	want := 20.0 / (20.0 + 999.0)
	if got := rep.Ranking[0].Ld; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("l_d = %v, want %v", got, want)
	}
}

func TestAnalyzeNilArgs(t *testing.T) {
	if _, err := Analyze(nil, nil, Options{}); err == nil {
		t.Error("nil args accepted")
	}
}

func TestHeapDisplayName(t *testing.T) {
	p, ipA, _, _, _ := testProgram(t)
	prof := mkProfile(objBase, 4, -1, samplesFor(ipA, 0, []int{1, 2, 3}, 10))
	prof.Objects[0].Heap = true
	prof.Objects[0].AllocIP = ipA // any valid IP; maps to u.c
	rep, err := Analyze(prof, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rep.Structures[0].Name, "heap@u.c:") {
		t.Errorf("heap display name = %q", rep.Structures[0].Name)
	}
}

func TestRenderAdviceTypes(t *testing.T) {
	adv := &SplitAdvice{StructName: "s", Groups: [][]string{{"a", "b"}, {"c"}}}
	out := adv.RenderStructs([]prog.PhysField{
		{Name: "a", Offset: 0, Size: 8, Float: true},
		{Name: "b", Offset: 8, Size: 4},
		{Name: "c", Offset: 12, Size: 49},
	})
	for _, want := range []string{"struct s_0", "struct s_1", "double a", "int b", "char[49] c"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered advice missing %q:\n%s", want, out)
		}
	}
	// Unknown fields fall back to "word".
	out2 := adv.RenderStructs(nil)
	if !strings.Contains(out2, "word a") {
		t.Errorf("fallback type missing:\n%s", out2)
	}
	// Single group keeps the bare name.
	adv2 := &SplitAdvice{StructName: "s", Groups: [][]string{{"a"}}}
	if out := adv2.RenderStructs(nil); !strings.Contains(out, "struct s {") {
		t.Errorf("single group name:\n%s", out)
	}
}

func TestWeightByCount(t *testing.T) {
	// Construct the paper's latency-vs-count divergence: fields x and y
	// co-occur in a loop with FEW but EXPENSIVE accesses to x, while x's
	// cheap accesses dominate elsewhere by count. Count weighting then
	// reports a much higher A(x,y) than latency weighting.
	// A dedicated program: loop A loads x; loop B loads x and y.
	b := prog.NewBuilder("weights")
	rec := prog.MustRecord("pair",
		prog.Field{Name: "x", Size: 8}, prog.Field{Name: "y", Size: 8})
	typeID := b.Type(prog.AoS(rec).Structs[0])
	b.Global("arr", 1024*16, typeID)
	b.Func("main", "u.c")
	base, iv, v := b.R(), b.R(), b.R()
	b.GAddr(base, 0)
	b.AtLine(10)
	b.ForRange(iv, 0, 100, 1, func() {
		b.AtLine(11)
		b.Load(v, base, iv, 16, 0, 8) // x in loop A
	})
	b.AtLine(20)
	b.ForRange(iv, 0, 100, 1, func() {
		b.AtLine(21)
		b.Load(v, base, iv, 16, 0, 8) // x in loop B
		b.Load(v, base, iv, 16, 8, 8) // y in loop B
	})
	b.Halt()
	p := b.MustProgram()
	var loads []uint64
	for _, blk := range p.Funcs[0].Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == isa.Load {
				loads = append(loads, blk.Instrs[i].IP)
			}
		}
	}
	if len(loads) != 3 {
		t.Fatalf("loads = %d", len(loads))
	}
	ipA, ipBx, ipBy := loads[0], loads[1], loads[2]

	var samples []profile.Sample
	// Loop A: x only — many cheap accesses (count-dominant).
	samples = append(samples, samplesFor(ipA, 0, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 5)...)
	// Loop B: x and y together — few, expensive.
	samples = append(samples, samplesFor(ipBx, 0, []int{20, 22}, 300)...)
	samples = append(samples, samplesFor(ipBy, 8, []int{21, 23}, 300)...)
	prof := mkProfile(objBase, 44, int32(typeID), samples)

	latRep, err := Analyze(prof, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cntRep, err := Analyze(prof, p, Options{WeightByCount: true})
	if err != nil {
		t.Fatal(err)
	}
	aLat := latRep.Structures[0].Affinity.Affinity(0, 8)
	aCnt := cntRep.Structures[0].Affinity.Affinity(0, 8)
	// Latency: lc = 600+600, l = 80+600+600 → ≈0.94.
	// Count: lc = 2+2, l = 16+2+2 → 0.2.
	if aLat < 0.85 {
		t.Errorf("latency-weighted A(x,y) = %v, want high", aLat)
	}
	if aCnt > 0.5 {
		t.Errorf("count-weighted A(x,y) = %v, want low", aCnt)
	}
	if aCnt >= aLat {
		t.Errorf("weighting made no difference: %v vs %v", aLat, aCnt)
	}
	// And the decisions diverge: latency weighting groups {x,y}; count
	// weighting splits them.
	if g := latRep.Structures[0].OffsetGroups; len(g) != 1 {
		t.Errorf("latency weighting groups = %v, want one", g)
	}
	if g := cntRep.Structures[0].OffsetGroups; len(g) != 2 {
		t.Errorf("count weighting groups = %v, want two", g)
	}
}

func TestWriteJSON(t *testing.T) {
	p, ipA, ipB, _, typeID := testProgram(t)
	var samples []profile.Sample
	samples = append(samples, samplesFor(ipA, 0, []int{1, 3, 6}, 100)...)
	samples = append(samples, samplesFor(ipB, 8, []int{2, 4, 7}, 50)...)
	prof := mkProfile(objBase, 8, int32(typeID), samples)
	rep, err := Analyze(prof, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	structures, ok := decoded["structures"].([]interface{})
	if !ok || len(structures) != 1 {
		t.Fatalf("structures missing: %v", decoded)
	}
	s := structures[0].(map[string]interface{})
	if s["type"] != "pair" || s["inferred_size"] != float64(16) {
		t.Errorf("structure JSON wrong: %v", s)
	}
	if adv, ok := s["advice"].([]interface{}); !ok || len(adv) != 2 {
		t.Errorf("advice JSON wrong: %v", s["advice"])
	}
}

func TestReportRendering(t *testing.T) {
	p, ipA, ipB, _, typeID := testProgram(t)
	var samples []profile.Sample
	samples = append(samples, samplesFor(ipA, 0, []int{1, 3, 6}, 100)...)
	samples = append(samples, samplesFor(ipB, 8, []int{2, 4, 7}, 50)...)
	prof := mkProfile(objBase, 8, int32(typeID), samples)
	rep, err := Analyze(prof, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.RenderText(&buf)
	out := buf.String()
	for _, want := range []string{"StructSlim report", "Hot data", "pair", "Affinities", "Splitting advice"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	var dot bytes.Buffer
	rep.Structures[0].WriteDot(&dot)
	if !strings.Contains(dot.String(), "graph affinity_arr") {
		t.Errorf("dot graph header missing:\n%s", dot.String())
	}

	// Keep-apart constraints from a sharing analysis overlay the graph
	// as dashed red edges.
	rep.Structures[0].KeepApart = [][2]uint64{{0, 8}, {8, 8}}
	dot.Reset()
	rep.Structures[0].WriteDot(&dot)
	for _, want := range []string{
		`f0 -- f8 [label="keep apart", style=dashed, color=red`,
		`f8 -- f8 [label="keep apart"`,
	} {
		if !strings.Contains(dot.String(), want) {
			t.Errorf("dot graph missing keep-apart edge %q:\n%s", want, dot.String())
		}
	}
}
