package profile

import (
	"reflect"
	"strings"
	"testing"
)

// synthTP builds a thread profile with a deterministic, tid-dependent
// sample mix so merged results are sensitive to which inputs went in.
func synthTP(tid int, n int) *ThreadProfile {
	tp := NewThreadProfile(tid, 10000)
	base := uint64(0x1000 * (tid + 1))
	for i := 0; i < n; i++ {
		s := Sample{
			TID:     int32(tid),
			IP:      uint64(0x400 + (i%3)*8),
			EA:      base + uint64(i)*24,
			Latency: uint32(10 + i + tid),
			Write:   i%4 == 0,
			Cycle:   uint64(tid*7 + i*13),
			ObjID:   int32(tid),
			Ctx:     uint64(i % 2),
		}
		tp.Add(s, uint64(100+i%2))
	}
	tp.Objects = []ObjInfo{{ID: int32(tid), Name: "obj", Base: base, Size: uint64(n) * 24, Identity: 100}}
	tp.AppCycles = uint64(1000 * (tid + 1))
	tp.OverheadCycles = uint64(10 * (tid + 1))
	tp.MemOps = uint64(n)
	return tp
}

func TestReduceSingleLeaf(t *testing.T) {
	tp := synthTP(0, 12)
	got, err := ReduceThreadProfiles([]*ThreadProfile{tp}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MergeThreadProfiles([]*ThreadProfile{tp})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("single-leaf reduction differs from sequential merge")
	}
	if got.Threads != 1 || got.NumSamples != 12 {
		t.Errorf("got threads=%d samples=%d, want 1/12", got.Threads, got.NumSamples)
	}
}

func TestReduceOddLeafCounts(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		tps := make([]*ThreadProfile, n)
		for i := range tps {
			tps[i] = synthTP(i, 8+i)
		}
		got, err := ReduceThreadProfiles(tps, 3)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := MergeThreadProfiles(tps)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got.Streams, want.Streams) {
			t.Errorf("n=%d: stream stats differ from sequential merge", n)
		}
		if !reflect.DeepEqual(got.Samples, want.Samples) {
			t.Errorf("n=%d: sample order differs from sequential merge", n)
		}
		if got.Threads != n {
			t.Errorf("n=%d: got %d threads", n, got.Threads)
		}
	}
}

func TestReduceErrorPropagation(t *testing.T) {
	// One leaf with a mismatched period must fail the whole reduction, at
	// every position in the input.
	for pos := 0; pos < 4; pos++ {
		tps := make([]*ThreadProfile, 4)
		for i := range tps {
			tps[i] = synthTP(i, 6)
		}
		tps[pos].Period = 5000
		if _, err := ReduceThreadProfiles(tps, 2); err == nil {
			t.Errorf("bad period at leaf %d: want error, got nil", pos)
		} else if !strings.Contains(err.Error(), "period") {
			t.Errorf("bad period at leaf %d: unexpected error %v", pos, err)
		}
	}
}
