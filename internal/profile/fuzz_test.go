package profile

import (
	"bytes"
	"testing"
)

// FuzzIngestDecode drives the frame decoder with arbitrary bytes: it
// must never panic, the writer must take back every input the decoder
// accepts and re-encode it byte for byte, so a relayed (proxied,
// spooled) frame stream is bit-stable, and the accepted batches must
// replay into a thread profile without panic.
func FuzzIngestDecode(f *testing.F) {
	seedBatches := []Batch{
		{
			Session: "s0", Process: "p0", TID: 1, Period: 10000, Seq: 3,
			Objects: []ObjInfo{
				{ID: 0, Heap: true, Name: "heap#0", Base: 0x1000, Size: 4096, Identity: 42, AllocIP: 0x400, TypeID: 2},
			},
			Samples: []Sample{
				{TID: 1, IP: 0x404, EA: 0x1010, Latency: 33, Level: 2, Write: true, Cycle: 99, ObjID: 0, Ctx: 7},
				{TID: 1, IP: 0x404, EA: 0x1028, Latency: 12, Cycle: 120, ObjID: -1},
			},
			AppCycles: 1000, OverheadCycles: 10, MemOps: 500,
		},
		{Session: "s1", Period: 1},
	}
	encode := func(bs []Batch) []byte {
		data, err := AppendBatches(nil, bs)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(encode(seedBatches))
	f.Add([]byte("SSB1truncated"))
	f.Add([]byte{})
	// A thread profile's own file: the object table first, the cycle
	// accounts last, samples in frames of two.
	tps := buildThreadProfiles()
	f.Add(encode(Split(tps[1], "t1", "", 2)))
	// Two threads' files in one input: the frames disagree on TID.
	f.Add(append(encode(Split(tps[0], "t0", "", 4)), encode(Split(tps[1], "t1", "", 4))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		bs, err := dec.Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only no-panic is required
		}
		enc, err := AppendBatches(nil, bs)
		if err != nil {
			t.Fatalf("writer refuses decoded batches: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("re-encode of accepted input differs from it")
		}
		// Replay refuses no frames or frames that disagree on TID or
		// period; it must not panic.
		if tp, err := Replay(bs); err == nil && tp.NumSamples != uint64(len(tp.Samples)) {
			t.Fatalf("replayed %d samples, counted %d", len(tp.Samples), tp.NumSamples)
		}
	})
}

// FuzzStreamObserve: any observation sequence keeps StreamStat sane —
// GCD divides every pairwise delta seen.
func FuzzStreamObserve(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		st := &StreamStat{}
		addrs := make([]uint64, 0, len(data))
		base := uint64(0x1000)
		for _, b := range data {
			ea := base + uint64(b)*8
			st.Observe(ea, 1, false, 0)
			addrs = append(addrs, ea)
		}
		if st.Count != uint64(len(data)) {
			t.Fatalf("count %d != %d", st.Count, len(data))
		}
		if st.GCD == 0 {
			return // fewer than two distinct addresses
		}
		for i := 1; i < len(addrs); i++ {
			d := addrs[i] - addrs[i-1]
			if addrs[i-1] > addrs[i] {
				d = addrs[i-1] - addrs[i]
			}
			if d%st.GCD != 0 {
				t.Fatalf("GCD %d does not divide delta %d", st.GCD, d)
			}
		}
	})
}
