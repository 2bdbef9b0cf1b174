package server_test

// Error-path coverage for the ingest decode path, the binary frames:
// every malformed request must be rejected with a 4xx — never a panic,
// never a partial ingest (a request is decoded and validated in full
// before any batch reaches a session queue).

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

func testBatches() []profile.Batch {
	return []profile.Batch{
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

// encode frames batches in the binary format.
func encode(t *testing.T, bs ...profile.Batch) []byte {
	t.Helper()
	data, err := profile.AppendBatches(nil, bs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decode runs the server's decode path over payload and releases the
// arena once the batches are copied out.
func decode(payload []byte) ([]profile.Batch, error) {
	bs, arena, err := server.DecodeBatchesArena(bytes.NewReader(payload), server.ContentTypeBinary)
	if err != nil {
		return nil, err
	}
	out := make([]profile.Batch, len(bs))
	for i, b := range bs {
		b.Samples = append([]profile.Sample(nil), b.Samples...)
		out[i] = b
		arena.Release()
	}
	return out, nil
}

// TestBinaryRoundTrip pins the canonical-codec contract on the server's
// entry points: AppendBatchBinary → DecodeBatchesArena reproduces the
// batches exactly, and re-encoding is byte-identical.
func TestBinaryRoundTrip(t *testing.T) {
	want := testBatches()
	var first []byte
	for i := range want {
		first = server.AppendBatchBinary(first, &want[i])
	}
	got, err := decode(first)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("binary round trip mutated batches:\ngot  %+v\nwant %+v", got, want)
	}
	if again := encode(t, got...); !bytes.Equal(first, again) {
		t.Error("binary re-encode not byte-identical")
	}
}

// TestArenaDecode exercises the pooled decode path directly: the decoded
// batches must equal the input, and Release must be safe to call once
// per batch. Any content type but the binary one is refused without an
// arena.
func TestArenaDecode(t *testing.T) {
	want := testBatches()
	payload := encode(t, want...)
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
	got, arena, err := server.DecodeBatchesArena(bytes.NewReader(payload), "application/x-ndjson")
	if err == nil || got != nil || arena != nil {
		t.Errorf("NDJSON content type: got %d batches, arena %v, error %v; want a refusal", len(got), arena, err)
	}
}

// TestBinaryDecodeErrors drives the decoder through each malformed-frame
// class; every one must produce a descriptive error, never a panic or an
// oversized allocation.
func TestBinaryDecodeErrors(t *testing.T) {
	valid := encode(t, testBatches()[0])
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
			_, err := decode(tc.payload)
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

	valid := encode(t, testBatches()[0])
	noSession := encode(t, profile.Batch{Period: 100, Seq: 1})
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
		bytes.NewReader(encode(t, profile.Batch{Session: "empty", Period: 100})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("empty batch with session: %d, want 202", resp.StatusCode)
	}
}
