package profile

import (
	"bytes"
	"testing"

	"repro/internal/stride"
)

func TestStreamObserveGCD(t *testing.T) {
	// Samples at Arr[2].a, Arr[5].a, Arr[7].a of a 16-byte struct: deltas
	// 48 and 32 → GCD 16 (the paper's worked example).
	st := &StreamStat{}
	base := uint64(0x1000)
	st.Observe(base+2*16, 100, false, 1)
	if st.GCD != 0 {
		t.Errorf("GCD after one sample = %d, want 0", st.GCD)
	}
	st.Observe(base+5*16, 150, false, 1)
	if st.GCD != 48 {
		t.Errorf("GCD after two samples = %d, want 48", st.GCD)
	}
	st.Observe(base+7*16, 200, false, 1)
	if st.GCD != 16 {
		t.Errorf("GCD = %d, want 16", st.GCD)
	}
	if st.Count != 3 || st.LatencySum != 450 {
		t.Errorf("count/latency = %d/%d", st.Count, st.LatencySum)
	}
	if st.FirstEA != base+32 || st.FirstObjID != 1 {
		t.Errorf("first anchor = %#x/%d", st.FirstEA, st.FirstObjID)
	}
}

func TestStreamObserveRepeatedAddress(t *testing.T) {
	// Re-touching the same address contributes no delta (temporal reuse
	// must not zero the GCD).
	st := &StreamStat{}
	st.Observe(100, 1, false, 0)
	st.Observe(100, 1, false, 0)
	st.Observe(116, 1, false, 0)
	st.Observe(116, 1, true, 0)
	if st.GCD != 16 {
		t.Errorf("GCD = %d, want 16", st.GCD)
	}
	if st.Writes != 1 {
		t.Errorf("writes = %d", st.Writes)
	}
}

func TestStreamObserveBackwardScan(t *testing.T) {
	// Descending addresses give the same stride (|m_i − m_{i−1}|).
	st := &StreamStat{}
	for i := 10; i >= 0; i-- {
		st.Observe(uint64(0x1000+i*24), 1, false, 0)
	}
	if st.GCD != 24 {
		t.Errorf("GCD = %d, want 24", st.GCD)
	}
}

func mkThreadProfile(tid int, samples []Sample, identities []uint64) *ThreadProfile {
	tp := NewThreadProfile(tid, 10000)
	for i, s := range samples {
		tp.Add(s, identities[i])
	}
	return tp
}

func TestThreadProfileAdd(t *testing.T) {
	tp := mkThreadProfile(0, []Sample{
		{IP: 0x400000, EA: 0x1000, Latency: 10},
		{IP: 0x400000, EA: 0x1010, Latency: 20},
		{IP: 0x400004, EA: 0x2000, Latency: 30},
	}, []uint64{7, 7, 9})
	if tp.NumSamples != 3 || tp.TotalLatency != 60 {
		t.Errorf("samples/latency = %d/%d", tp.NumSamples, tp.TotalLatency)
	}
	if len(tp.Streams) != 2 {
		t.Fatalf("streams = %d, want 2", len(tp.Streams))
	}
	st := tp.Streams[StreamKey{IP: 0x400000, Identity: 7}]
	if st == nil || st.Count != 2 || st.GCD != 16 {
		t.Errorf("stream = %+v", st)
	}
}

func TestMergeThreadProfiles(t *testing.T) {
	// Two threads sampling the same stream over disjoint halves: counts
	// sum and strides combine by GCD.
	a := mkThreadProfile(0, []Sample{
		{TID: 0, IP: 1000, EA: 0x1000, Latency: 5, Cycle: 10},
		{TID: 0, IP: 1000, EA: 0x1030, Latency: 5, Cycle: 30},
	}, []uint64{7, 7})
	b := mkThreadProfile(1, []Sample{
		{TID: 1, IP: 1000, EA: 0x9000, Latency: 7, Cycle: 20},
		{TID: 1, IP: 1000, EA: 0x9020, Latency: 7, Cycle: 40},
	}, []uint64{7, 7})
	a.Objects = []ObjInfo{{ID: 0, Name: "x"}}
	b.Objects = []ObjInfo{{ID: 0, Name: "x"}}
	a.AppCycles, b.AppCycles = 100, 140
	a.OverheadCycles, b.OverheadCycles = 9, 6
	a.MemOps, b.MemOps = 1000, 1100

	p, err := MergeThreadProfiles([]*ThreadProfile{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if p.Threads != 2 || p.NumSamples != 4 || p.TotalLatency != 24 {
		t.Errorf("merged header: %+v", p)
	}
	st := p.Streams[StreamKey{IP: 1000, Identity: 7}]
	if st == nil {
		t.Fatal("merged stream missing")
	}
	if st.Count != 4 {
		t.Errorf("count = %d", st.Count)
	}
	if st.GCD != stride.GCD(0x30, 0x20) {
		t.Errorf("merged GCD = %d, want %d", st.GCD, stride.GCD(0x30, 0x20))
	}
	// Samples sorted by cycle.
	for i := 1; i < len(p.Samples); i++ {
		if p.Samples[i].Cycle < p.Samples[i-1].Cycle {
			t.Fatal("merged samples not cycle-sorted")
		}
	}
	// Objects deduplicated.
	if len(p.Objects) != 1 {
		t.Errorf("objects = %d, want 1", len(p.Objects))
	}
	// Cycle accounts: max across threads; memops summed.
	if p.AppCycles != 140 || p.OverheadCycles != 9 || p.MemOps != 2100 {
		t.Errorf("cycles = %d/%d memops = %d", p.AppCycles, p.OverheadCycles, p.MemOps)
	}
}

func TestMergeRejectsMixedPeriods(t *testing.T) {
	a := NewThreadProfile(0, 1000)
	b := NewThreadProfile(1, 2000)
	if _, err := MergeThreadProfiles([]*ThreadProfile{a, b}); err == nil {
		t.Error("mixed periods accepted")
	}
	if _, err := MergeThreadProfiles(nil); err == nil {
		t.Error("empty merge accepted")
	}
}

func TestReduceMatchesSequentialMerge(t *testing.T) {
	// Reduction-tree merge must be equivalent to the sequential merge for
	// any thread count, including odd ones.
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		var tps []*ThreadProfile
		for tid := 0; tid < n; tid++ {
			samples := make([]Sample, 0, 10)
			ids := make([]uint64, 0, 10)
			for k := 0; k < 10; k++ {
				samples = append(samples, Sample{
					TID: int32(tid), IP: uint64(1000 + k%3),
					EA:      uint64(0x1000 + tid*0x100 + k*16),
					Latency: uint32(tid + k), Cycle: uint64(tid*1000 + k*10),
				})
				ids = append(ids, uint64(1+k%2))
			}
			tp := mkThreadProfile(tid, samples, ids)
			tp.Objects = []ObjInfo{{ID: int32(tid), Name: "o"}}
			tp.AppCycles = uint64(100 * (tid + 1))
			tps = append(tps, tp)
		}
		seq, err := MergeThreadProfiles(tps)
		if err != nil {
			t.Fatal(err)
		}
		par, err := ReduceThreadProfiles(tps, 3)
		if err != nil {
			t.Fatal(err)
		}
		if par.NumSamples != seq.NumSamples || par.TotalLatency != seq.TotalLatency ||
			par.Threads != seq.Threads || par.AppCycles != seq.AppCycles ||
			len(par.Objects) != len(seq.Objects) || len(par.Streams) != len(seq.Streams) {
			t.Fatalf("n=%d: tree merge differs from sequential", n)
		}
		for key, sst := range seq.Streams {
			pst := par.Streams[key]
			if pst == nil || pst.Count != sst.Count || pst.GCD != sst.GCD || pst.LatencySum != sst.LatencySum {
				t.Fatalf("n=%d: stream %+v differs: %+v vs %+v", n, key, pst, sst)
			}
		}
		for i := 1; i < len(par.Samples); i++ {
			if par.Samples[i].Cycle < par.Samples[i-1].Cycle {
				t.Fatalf("n=%d: tree-merged samples unsorted", n)
			}
		}
	}
}

func TestReduceEmpty(t *testing.T) {
	if _, err := ReduceThreadProfiles(nil, 2); err == nil {
		t.Error("empty reduce accepted")
	}
}

func TestGobRoundTrip(t *testing.T) {
	tp := mkThreadProfile(3, []Sample{
		{TID: 3, IP: 0x400010, EA: 0x5000, Latency: 42, Level: 2, Write: true, Cycle: 99, ObjID: 4},
	}, []uint64{11})
	tp.Objects = []ObjInfo{{ID: 4, Heap: true, Name: "heap@0x400100", Base: 0x5000, Size: 64, Identity: 11, AllocIP: 0x400100, TypeID: 2}}
	tp.AppCycles = 12345

	var buf bytes.Buffer
	if err := tp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadThreadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TID != 3 || got.NumSamples != 1 || got.AppCycles != 12345 {
		t.Errorf("round trip header: %+v", got)
	}
	if len(got.Samples) != 1 || got.Samples[0] != tp.Samples[0] {
		t.Errorf("round trip samples: %+v", got.Samples)
	}
	st := got.Streams[StreamKey{IP: 0x400010, Identity: 11}]
	if st == nil || st.Count != 1 || st.Writes != 1 {
		t.Errorf("round trip stream: %+v", st)
	}
	if len(got.Objects) != 1 || got.Objects[0] != tp.Objects[0] {
		t.Errorf("round trip objects: %+v", got.Objects)
	}
}

func TestWriteReadDir(t *testing.T) {
	dir := t.TempDir()
	tps := []*ThreadProfile{
		mkThreadProfile(0, []Sample{{IP: 1, EA: 2, Latency: 3}}, []uint64{1}),
		mkThreadProfile(1, []Sample{{IP: 4, EA: 5, Latency: 6}}, []uint64{2}),
	}
	if err := WriteDir(dir, tps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d profiles, want 2", len(got))
	}
	if _, err := ReadDir(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestObjByID(t *testing.T) {
	p := &Profile{Objects: []ObjInfo{{ID: 1}, {ID: 5}, {ID: 9}}}
	if o := p.ObjByID(5); o == nil || o.ID != 5 {
		t.Error("ObjByID(5) failed")
	}
	if p.ObjByID(4) != nil || p.ObjByID(100) != nil {
		t.Error("ObjByID found a ghost")
	}
}

func TestOverheadPct(t *testing.T) {
	p := &Profile{AppCycles: 1000, OverheadCycles: 70}
	if got := p.OverheadPct(); got != 7.0 {
		t.Errorf("OverheadPct = %v, want 7", got)
	}
	if (&Profile{}).OverheadPct() != 0 {
		t.Error("zero-cycle profile should report 0 overhead")
	}
}
