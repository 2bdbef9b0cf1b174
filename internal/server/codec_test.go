package server_test

// Error-path coverage for the ingest codecs, centered on the binary
// framing: every malformed request must be rejected with a 4xx — never a
// panic, never a partial ingest (a request is decoded and validated in
// full before any batch reaches a session queue).

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/stream"
)

func testBatches() []stream.Batch {
	return []stream.Batch{
		{
			Session: "s0", Process: "p0", TID: 1, Period: 10000, Seq: 3,
			Objects: []profile.ObjInfo{
				{ID: 0, Heap: true, Name: "heap#0", Base: 0x1000, Size: 4096, Identity: 42, AllocIP: 0x400, TypeID: 2},
				{ID: 1, Name: "", Base: 0x2000, Size: 64, Identity: 7, TypeID: -1},
			},
			Samples: []profile.Sample{
				{TID: 1, IP: 0x404, EA: 0x1010, Latency: 33, Level: 2, Write: true, Cycle: 99, ObjID: 0, Ctx: 7},
				{TID: 1, IP: 0x404, EA: 0x1028, Latency: 12, Cycle: 120, ObjID: -1},
			},
			AppCycles: 1000, OverheadCycles: 10, MemOps: 500,
		},
		{Session: "s1", Period: 1, Seq: 9},
	}
}

// TestBinaryRoundTrip pins the canonical-codec contract: encode → decode
// reproduces the batches exactly, and re-encoding is byte-identical.
func TestBinaryRoundTrip(t *testing.T) {
	want := testBatches()
	var buf bytes.Buffer
	if err := server.EncodeBatches(&buf, server.ContentTypeBinary, want); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	got, err := server.DecodeBatches(bytes.NewReader(first), server.ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("binary round trip mutated batches:\ngot  %+v\nwant %+v", got, want)
	}
	var again bytes.Buffer
	if err := server.EncodeBatches(&again, server.ContentTypeBinary, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Error("binary re-encode not byte-identical")
	}
}

// TestBinaryMatchesNDJSONSemantics cross-checks the two codecs: the same
// batches pushed through NDJSON and through the binary framing must
// decode to identical values.
func TestBinaryMatchesNDJSONSemantics(t *testing.T) {
	in := testBatches()
	var jsonBuf, binBuf bytes.Buffer
	if err := server.EncodeBatches(&jsonBuf, server.ContentTypeNDJSON, in); err != nil {
		t.Fatal(err)
	}
	if err := server.EncodeBatches(&binBuf, server.ContentTypeBinary, in); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := server.DecodeBatches(&jsonBuf, server.ContentTypeNDJSON)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := server.DecodeBatches(&binBuf, server.ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, fromBin) {
		t.Errorf("NDJSON and binary decode to different values:\nndjson %+v\nbinary %+v", fromJSON, fromBin)
	}
}

// TestArenaDecode exercises the pooled decode path directly: the decoded
// batches must equal the plain decode, and Release must be safe to call
// once per batch.
func TestArenaDecode(t *testing.T) {
	want := testBatches()
	var buf bytes.Buffer
	if err := server.EncodeBatches(&buf, server.ContentTypeBinary, want); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	// Two rounds so the second decode reuses a recycled arena.
	for round := 0; round < 2; round++ {
		got, arena, err := server.DecodeBatchesArena(bytes.NewReader(payload), server.ContentTypeBinary)
		if err != nil {
			t.Fatal(err)
		}
		if arena == nil {
			t.Fatal("binary decode returned no arena")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: arena decode differs from input", round)
		}
		for range got {
			arena.Release()
		}
	}
	// NDJSON takes the plain path: nil arena, Release is a no-op.
	var jsonBuf bytes.Buffer
	if err := server.EncodeBatches(&jsonBuf, server.ContentTypeNDJSON, want); err != nil {
		t.Fatal(err)
	}
	got, arena, err := server.DecodeBatchesArena(&jsonBuf, server.ContentTypeNDJSON)
	if err != nil {
		t.Fatal(err)
	}
	if arena != nil {
		t.Error("NDJSON decode returned an arena")
	}
	arena.Release()
	if !reflect.DeepEqual(got, want) {
		t.Error("NDJSON arena-path decode differs from input")
	}
}

// encodeOne frames a single batch in the binary format.
func encodeOne(t *testing.T, b stream.Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := server.EncodeBatches(&buf, server.ContentTypeBinary, []stream.Batch{b}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryDecodeErrors drives the decoder through each malformed-frame
// class; every one must produce a descriptive error, never a panic or an
// oversized allocation.
func TestBinaryDecodeErrors(t *testing.T) {
	valid := encodeOne(t, testBatches()[0])
	le := binary.LittleEndian

	corrupt := func(mutate func(b []byte) []byte) []byte {
		cp := append([]byte(nil), valid...)
		return mutate(cp)
	}
	cases := []struct {
		name    string
		payload []byte
		errHas  string
	}{
		{"truncated header", valid[:40], "truncated header"},
		{"truncated body", valid[:len(valid)-13], "truncated body"},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), "bad magic"},
		{"oversized frame length", corrupt(func(b []byte) []byte {
			le.PutUint32(b[4:], 1<<30)
			return b
		}), "oversized frame"},
		{"oversized session string", corrupt(func(b []byte) []byte {
			le.PutUint32(b[8:], 1<<20)
			return b
		}), "oversized session"},
		{"oversized object table", corrupt(func(b []byte) []byte {
			le.PutUint32(b[60:], 1<<24)
			return b
		}), "oversized object table"},
		{"sample count exceeds frame", corrupt(func(b []byte) []byte {
			le.PutUint32(b[64:], 1<<20)
			return b
		}), "exceed frame length"},
		{"count/length disagreement", corrupt(func(b []byte) []byte {
			// One sample fewer than the frame carries: trailing bytes.
			le.PutUint32(b[64:], le.Uint32(b[64:])-1)
			return b
		}), "disagrees with counts"},
		{"mid-stream codec switch", append(append([]byte(nil), valid...),
			[]byte("{\"Session\":\"s\",\"Period\":1}\n")...), "frame 1"},
		{"gob spliced after frame", func() []byte {
			var gobBuf bytes.Buffer
			if err := gob.NewEncoder(&gobBuf).Encode(testBatches()); err != nil {
				t.Fatal(err)
			}
			return append(append([]byte(nil), valid...), gobBuf.Bytes()...)
		}(), "frame 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := server.DecodeBatches(bytes.NewReader(tc.payload), server.ContentTypeBinary)
			if err == nil {
				t.Fatal("malformed frame accepted")
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("error %q does not mention %q", err, tc.errHas)
			}
		})
	}
}

// TestServerRejectsMalformedBinary posts each malformed-request class at
// a live server: all must yield 4xx with zero batches ingested — decode
// and validation errors may never leave a request prefix in the analyzer.
func TestServerRejectsMalformedBinary(t *testing.T) {
	an, err := stream.New(nil, stream.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(an, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	valid := encodeOne(t, testBatches()[0])
	noSession := encodeOne(t, stream.Batch{Period: 100, Seq: 1})
	cases := []struct {
		name    string
		payload []byte
	}{
		{"truncated frame", valid[:len(valid)-5]},
		{"oversized header", func() []byte {
			cp := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(cp[4:], 1<<31-1)
			return cp
		}()},
		{"mid-stream codec switch", append(append([]byte(nil), valid...), []byte("not a frame")...)},
		{"empty request, zero frames", nil},
		{"empty-batch frame without session", noSession},
		// The invalid frame rides second: the valid first frame must not
		// be ingested either (atomicity of one request).
		{"valid frame then invalid", append(append([]byte(nil), valid...), noSession...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/samples", server.ContentTypeBinary, bytes.NewReader(tc.payload))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode < 400 || resp.StatusCode > 499 {
				t.Fatalf("status %d, want 4xx", resp.StatusCode)
			}
			srv.Flush()
			if got := an.Sessions(); len(got) != 0 {
				t.Fatalf("partial ingest: analyzer has sessions %+v", got)
			}
		})
	}

	// Positive control: an empty batch with a session is the push
	// protocol's empty-stream case and must be accepted.
	resp, err := http.Post(ts.URL+"/v1/samples", server.ContentTypeBinary,
		bytes.NewReader(encodeOne(t, stream.Batch{Session: "empty", Period: 100})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("empty batch with session: %d, want 202", resp.StatusCode)
	}
}
