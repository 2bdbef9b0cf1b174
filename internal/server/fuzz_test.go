package server_test

import (
	"bytes"
	"testing"

	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/stream"
)

// FuzzIngestDecode drives both wire codecs with arbitrary bytes: the
// decoder must never panic, and any input it accepts must round-trip —
// decode → encode → decode → encode yields byte-identical encodings, so
// a relayed (proxied, spooled) batch stream is bit-stable.
func FuzzIngestDecode(f *testing.F) {
	seedBatches := []stream.Batch{
		{
			Session: "s0", Process: "p0", TID: 1, Period: 10000, Seq: 3,
			Objects: []profile.ObjInfo{
				{ID: 0, Heap: true, Name: "heap#0", Base: 0x1000, Size: 4096, Identity: 42, AllocIP: 0x400, TypeID: 2},
			},
			Samples: []profile.Sample{
				{TID: 1, IP: 0x404, EA: 0x1010, Latency: 33, Level: 2, Write: true, Cycle: 99, ObjID: 0, Ctx: 7},
				{TID: 1, IP: 0x404, EA: 0x1028, Latency: 12, Cycle: 120, ObjID: -1},
			},
			AppCycles: 1000, OverheadCycles: 10, MemOps: 500,
		},
		{Session: "s1", Period: 1},
	}
	var ndjson, bin bytes.Buffer
	if err := server.EncodeBatches(&ndjson, server.ContentTypeNDJSON, seedBatches); err != nil {
		f.Fatal(err)
	}
	if err := server.EncodeBatches(&bin, server.ContentTypeBinary, seedBatches); err != nil {
		f.Fatal(err)
	}
	f.Add(server.ContentTypeNDJSON, ndjson.Bytes())
	f.Add(server.ContentTypeBinary, bin.Bytes())
	// Each codec's valid encoding under the other's content type.
	f.Add(server.ContentTypeNDJSON, bin.Bytes())
	f.Add(server.ContentTypeBinary, ndjson.Bytes())
	f.Add(server.ContentTypeNDJSON, []byte("not json\n"))
	f.Add(server.ContentTypeBinary, []byte("SSB1truncated"))
	f.Add("text/unknown", []byte{})

	f.Fuzz(func(t *testing.T, ct string, data []byte) {
		bs, err := server.DecodeBatches(bytes.NewReader(data), ct)
		if err != nil {
			return // rejected input: only no-panic is required
		}
		var enc1 bytes.Buffer
		if err := server.EncodeBatches(&enc1, ct, bs); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		bs2, err := server.DecodeBatches(bytes.NewReader(enc1.Bytes()), ct)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		var enc2 bytes.Buffer
		if err := server.EncodeBatches(&enc2, ct, bs2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Errorf("encode→decode→encode not byte-identical for %s", ct)
		}
	})
}
