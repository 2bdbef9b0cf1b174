package server_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/workloads"
	"repro/structslim"
)

var testOpt = structslim.Options{SamplePeriod: 3000, Seed: 7}

// batchesOf splits a run into per-thread session batches.
func batchesOf(res *structslim.RunResult, batchSize int) []stream.Batch {
	var out []stream.Batch
	for _, tp := range res.ThreadProfiles {
		n := len(tp.Samples)
		var seq uint64
		for start := 0; start < n || start == 0; start += batchSize {
			end := start + batchSize
			if end > n {
				end = n
			}
			b := stream.Batch{
				Session: fmt.Sprintf("push-t%03d", tp.TID),
				Process: "p0",
				TID:     int32(tp.TID),
				Period:  tp.Period,
				Seq:     seq,
				Samples: tp.Samples[start:end],
			}
			if start == 0 {
				b.Objects = tp.Objects
			}
			if end == n {
				b.AppCycles = tp.AppCycles
				b.OverheadCycles = tp.OverheadCycles
				b.MemOps = tp.MemOps
			}
			out = append(out, b)
			seq++
			if end == n {
				break
			}
		}
	}
	return out
}

func postBatches(t *testing.T, ts *httptest.Server, ct string, bs []stream.Batch) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := server.EncodeBatches(&buf, ct, bs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/samples", ct, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestEndToEnd pushes a profiled workload over HTTP in both wire formats
// and checks the server's report, snapshot, advice, live view, and
// metrics against the local batch pipeline.
func TestEndToEnd(t *testing.T) {
	for _, ct := range []string{server.ContentTypeBinary, server.ContentTypeNDJSON} {
		t.Run(ct, func(t *testing.T) {
			w, err := workloads.Get("art")
			if err != nil {
				t.Fatal(err)
			}
			p, phases, err := w.Build(nil, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			res, err := structslim.ProfileRun(p, phases, testOpt)
			if err != nil {
				t.Fatal(err)
			}
			batchRep, err := core.Analyze(res.Profile, p, testOpt.Analysis)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			batchRep.RenderText(&want)

			an, err := stream.New(p, stream.Config{})
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(an, server.Config{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Drain()

			resp := postBatches(t, ts, ct, batchesOf(res, 128))
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST /v1/samples: %d", resp.StatusCode)
			}

			// Online report and snapshot-derived report both match batch.
			for _, path := range []string{"/v1/report", "/v1/report?source=snapshot"} {
				code, body := get(t, ts, path)
				if code != http.StatusOK {
					t.Fatalf("GET %s: %d: %s", path, code, body)
				}
				if !bytes.Equal(body, want.Bytes()) {
					t.Errorf("GET %s differs from batch report", path)
				}
			}

			// Snapshot round-trips to the batch merged profile.
			resp, err = http.Get(ts.URL + "/v1/snapshot")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /v1/snapshot: %d", resp.StatusCode)
			}
			if got := resp.Header.Get("Content-Type"); got != server.ContentTypeProfile {
				t.Errorf("GET /v1/snapshot Content-Type %q, want %q", got, server.ContentTypeProfile)
			}
			snap, err := profile.ReadProfile(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap, res.Profile) {
				t.Error("snapshot over HTTP differs from batch merged profile")
			}

			// Advice for the hot structure resolves by type name.
			if len(batchRep.Structures) == 0 {
				t.Fatal("batch report has no structures")
			}
			hot := batchRep.Structures[0]
			name := hot.TypeName
			if name == "" {
				name = hot.Name
			}
			code, body := get(t, ts, "/v1/advice/"+name)
			if code != http.StatusOK {
				t.Fatalf("GET /v1/advice/%s: %d: %s", name, code, body)
			}
			if !bytes.Contains(body, []byte(fmt.Sprintf("\"identity\": %d", hot.Identity))) {
				t.Errorf("advice response missing identity: %s", body)
			}
			code, _ = get(t, ts, "/v1/advice/nonexistent")
			if code != http.StatusNotFound {
				t.Errorf("GET /v1/advice/nonexistent: %d, want 404", code)
			}

			// Live view and metrics respond.
			code, body = get(t, ts, "/v1/live?top=3")
			if code != http.StatusOK || !bytes.Contains(body, []byte("Structures")) {
				t.Errorf("GET /v1/live: %d: %.80s", code, body)
			}
			code, body = get(t, ts, "/metrics")
			if code != http.StatusOK {
				t.Fatalf("GET /metrics: %d", code)
			}
			for _, metric := range []string{
				"structslim_samples_total",
				"structslim_batches_total",
				"structslim_queue_depth{session=\"push-t000\"}",
				"structslim_session_lag_cycles",
				"structslim_samples_per_second",
			} {
				if !bytes.Contains(body, []byte(metric)) {
					t.Errorf("metrics missing %s", metric)
				}
			}
		})
	}
}

// TestBackpressure fills a depth-1 queue against a blocked ingest worker
// and expects 429 + Retry-After, then verifies nothing was lost once the
// worker resumes and the client retries.
func TestBackpressure(t *testing.T) {
	an, err := stream.New(nil, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	srv := server.New(an, server.Config{
		QueueDepth:  1,
		IngestDelay: func() { <-release },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mk := func(seq uint64) stream.Batch {
		return stream.Batch{
			Session: "s", Period: 1000, Seq: seq,
			Objects: []profile.ObjInfo{{ID: 0, Name: "o", Base: 0x1000, Size: 4096, Identity: 1, TypeID: -1}},
			Samples: []profile.Sample{{IP: 0x400, EA: 0x1000 + 8*seq, Latency: 10, ObjID: 0}},
		}
	}
	// First batch occupies the (blocked) worker, second fills the queue;
	// eventually a POST must bounce with 429.
	var rejected *http.Response
	for seq := uint64(0); seq < 8; seq++ {
		resp := postBatches(t, ts, server.ContentTypeBinary, []stream.Batch{mk(seq)})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seq %d: unexpected status %d", seq, resp.StatusCode)
		}
	}
	if rejected == nil {
		t.Fatal("no 429 despite blocked worker and depth-1 queue")
	}
	if ra := rejected.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}

	// Unblock and retry: the accepted batches drain, new ones are taken.
	// Wait for the drain first; a retry racing the worker may still meet
	// the full queue and rightly get another 429.
	once.Do(func() { close(release) })
	srv.Flush()
	resp := postBatches(t, ts, server.ContentTypeBinary, []stream.Batch{mk(99)})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-release POST: %d", resp.StatusCode)
	}
	srv.Flush()
	infos := an.Sessions()
	if len(infos) != 1 || infos[0].NumSamples == 0 {
		t.Fatalf("analyzer saw %v", infos)
	}
	srv.Drain()
}

// TestNonPositiveQueueDepth: a zero or negative queue depth selects the
// default. A negative depth once panicked in the
// first POST with the server lock held, which wedged every later POST,
// flush and metrics read; each request here must answer within the
// client's deadline.
func TestNonPositiveQueueDepth(t *testing.T) {
	an, err := stream.New(nil, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(an, server.Config{QueueDepth: -1})
	// No deferred Close or Drain: on a wedged server both would block on
	// the stuck handlers, turning a failure into a hang.
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Timeout: 10 * time.Second}
	expect := func(what string, want int, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: %d, want %d", what, resp.StatusCode, want)
		}
	}

	for seq := uint64(0); seq < 2; seq++ {
		var buf bytes.Buffer
		b := stream.Batch{
			Session: "s", Period: 1000, Seq: seq,
			Objects: []profile.ObjInfo{{ID: 0, Name: "o", Base: 0x1000, Size: 4096, Identity: 1, TypeID: -1}},
			Samples: []profile.Sample{{IP: 0x400, EA: 0x1000 + 8*seq, Latency: 10, ObjID: 0}},
		}
		if err := server.EncodeBatches(&buf, server.ContentTypeBinary, []stream.Batch{b}); err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/v1/samples", server.ContentTypeBinary, &buf)
		expect(fmt.Sprintf("POST %d", seq), http.StatusAccepted, resp, err)
	}
	resp, err := client.Post(ts.URL+"/v1/flush", "", nil)
	expect("POST /v1/flush", http.StatusNoContent, resp, err)
	resp, err = client.Get(ts.URL + "/metrics")
	expect("GET /metrics", http.StatusOK, resp, err)
	if infos := an.Sessions(); len(infos) != 1 || infos[0].NumSamples != 2 {
		t.Fatalf("analyzer saw %+v, want one session of 2 samples", infos)
	}
	ts.Close()
	srv.Drain()
}

// TestSessionCellsMetric: the per-session cell gauges sum to the
// distinct (identity, IP, raw element offset) keys each session was
// pushed — one accumulation cell per key, since an IP has one loop.
// health runs four threads, so four sessions report.
func TestSessionCellsMetric(t *testing.T) {
	w, err := workloads.Get("health")
	if err != nil {
		t.Fatal(err)
	}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := structslim.ProfileRun(p, phases, testOpt)
	if err != nil {
		t.Fatal(err)
	}
	an, err := stream.New(p, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(an, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	bs := batchesOf(res, 64)
	resp := postBatches(t, ts, server.ContentTypeBinary, bs)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/samples: %d", resp.StatusCode)
	}
	srv.Flush()

	type cellKey struct {
		session           string
		identity, ip, off uint64
	}
	want := make(map[cellKey]bool)
	objs := make(map[string]map[int32]profile.ObjInfo)
	for _, b := range bs {
		if objs[b.Session] == nil {
			objs[b.Session] = make(map[int32]profile.ObjInfo)
		}
		for _, o := range b.Objects {
			objs[b.Session][o.ID] = o
		}
		for _, s := range b.Samples {
			if o, ok := objs[b.Session][s.ObjID]; ok && s.ObjID >= 0 {
				want[cellKey{b.Session, o.Identity, s.IP, s.EA - o.Base}] = true
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("pushed no attributed samples")
	}

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	gauges, sum := 0, 0
	for _, line := range strings.Split(string(body), "\n") {
		v, ok := strings.CutPrefix(line, "structslim_session_cells{")
		if !ok {
			continue
		}
		_, num, _ := strings.Cut(v, "} ")
		n, err := strconv.Atoi(num)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		gauges++
		sum += n
	}
	if gauges != len(res.ThreadProfiles) {
		t.Errorf("%d structslim_session_cells gauges, want one per session (%d)", gauges, len(res.ThreadProfiles))
	}
	if sum != len(want) {
		t.Errorf("structslim_session_cells sums to %d, want %d distinct keys", sum, len(want))
	}
}

// TestDrain verifies the graceful-drain contract: queued batches are
// ingested, later posts are refused, queries still work.
func TestDrain(t *testing.T) {
	an, err := stream.New(nil, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(an, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bs := []stream.Batch{{
		Session: "s", Period: 1000,
		Objects: []profile.ObjInfo{{ID: 0, Name: "o", Base: 0x1000, Size: 4096, Identity: 1, TypeID: -1}},
		Samples: []profile.Sample{
			{IP: 0x400, EA: 0x1000, Latency: 10, ObjID: 0},
			{IP: 0x400, EA: 0x1018, Latency: 10, ObjID: 0},
		},
	}}
	resp := postBatches(t, ts, server.ContentTypeNDJSON, bs)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	srv.Drain()

	// Every queued sample made it in.
	infos := an.Sessions()
	if len(infos) != 1 || infos[0].NumSamples != 2 {
		t.Fatalf("after drain: %+v", infos)
	}
	// New ingest is refused with 503.
	resp = postBatches(t, ts, server.ContentTypeNDJSON, bs)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST after drain: %d, want 503", resp.StatusCode)
	}
	// Reads still work.
	if code, _ := get(t, ts, "/v1/live"); code != http.StatusOK {
		t.Errorf("GET /v1/live after drain: %d", code)
	}
	// Drain is idempotent.
	srv.Drain()
}

func TestBadRequests(t *testing.T) {
	an, _ := stream.New(nil, stream.Config{})
	srv := server.New(an, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	// The retired gob codec is refused like any unknown type, and the
	// refusal names the two codecs the server speaks.
	var gobBody bytes.Buffer
	if err := gob.NewEncoder(&gobBody).Encode([]stream.Batch{{Session: "s", Period: 1}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ct   string
		body []byte
	}{
		{"text/csv", []byte("x")},
		{"application/x-structslim-gob", gobBody.Bytes()},
	} {
		resp, err := http.Post(ts.URL+"/v1/samples", tc.ct, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", tc.ct, resp.StatusCode)
		}
		for _, want := range []string{server.ContentTypeBinary, server.ContentTypeNDJSON} {
			if !strings.Contains(string(msg), want) {
				t.Errorf("%s: refusal %q does not name %s", tc.ct, msg, want)
			}
		}
	}

	resp, err := http.Post(ts.URL+"/v1/samples", server.ContentTypeNDJSON,
		bytes.NewBufferString(`{"Session":"","Period":0}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batch without session: %d, want 400", resp.StatusCode)
	}

	// Report with no sessions yet: 409.
	if code, _ := get(t, ts, "/v1/report"); code != http.StatusConflict {
		t.Errorf("report with no data: %d, want 409", code)
	}
}

// TestLiveTop checks GET /v1/live's top parameter: anything but a
// non-negative integer is refused, and top=K caps the ranking at K.
func TestLiveTop(t *testing.T) {
	an, _ := stream.New(nil, stream.Config{})
	srv := server.New(an, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	bs := []stream.Batch{{
		Session: "s", Period: 1000,
		Objects: []profile.ObjInfo{
			{ID: 0, Name: "a", Base: 0x1000, Size: 4096, Identity: 1, TypeID: -1},
			{ID: 1, Name: "b", Base: 0x9000, Size: 4096, Identity: 2, TypeID: -1},
		},
		Samples: []profile.Sample{
			{IP: 0x400, EA: 0x1000, Latency: 10, ObjID: 0},
			{IP: 0x408, EA: 0x9000, Latency: 20, ObjID: 1},
		},
	}}
	resp := postBatches(t, ts, server.ContentTypeNDJSON, bs)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	srv.Flush()

	for _, v := range []string{"abc", "-1", "3x"} {
		if code, body := get(t, ts, "/v1/live?top="+v); code != http.StatusBadRequest {
			t.Errorf("top=%s: %d, want 400: %s", v, code, body)
		}
	}
	for query, want := range map[string]int{"": 2, "?top=0": 2, "?top=1": 1} {
		code, body := get(t, ts, "/v1/live"+query)
		var view stream.LiveView
		if err := json.Unmarshal(body, &view); code != http.StatusOK || err != nil {
			t.Fatalf("GET /v1/live%s: %d %v: %s", query, code, err, body)
		}
		if len(view.Structures) != want {
			t.Errorf("GET /v1/live%s: %d structures, want %d", query, len(view.Structures), want)
		}
	}
}

// TestReportBuildsMetric: GET /v1/report then GET /v1/advice/{record}
// share one report build, and a POST /v1/samples between the two reads
// forces a second. structslim_report_builds_total counts the builds.
func TestReportBuildsMetric(t *testing.T) {
	w, err := workloads.Get("art")
	if err != nil {
		t.Fatal(err)
	}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := structslim.ProfileRun(p, phases, testOpt)
	if err != nil {
		t.Fatal(err)
	}
	bs := batchesOf(res, 128)
	for _, tc := range []struct {
		name       string
		postMiddle bool
		want       uint64
	}{{"reads", false, 1}, {"reads around a post", true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			an, err := stream.New(p, stream.Config{})
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(an, server.Config{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Drain()
			post := func(bs []stream.Batch) {
				resp := postBatches(t, ts, server.ContentTypeBinary, bs)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("POST /v1/samples: %d", resp.StatusCode)
				}
			}
			last := len(bs) - 1
			if tc.postMiddle {
				post(bs[:last])
			} else {
				post(bs)
			}
			if code, body := get(t, ts, "/v1/report"); code != http.StatusOK {
				t.Fatalf("GET /v1/report: %d: %s", code, body)
			}
			if tc.postMiddle {
				post(bs[last:])
			}
			path := "/v1/advice/" + w.Record().Name
			if code, body := get(t, ts, path); code != http.StatusOK {
				t.Fatalf("GET %s: %d: %s", path, code, body)
			}
			code, body := get(t, ts, "/metrics")
			if code != http.StatusOK {
				t.Fatalf("GET /metrics: %d", code)
			}
			var builds uint64
			found := false
			for _, line := range strings.Split(string(body), "\n") {
				if v, ok := strings.CutPrefix(line, "structslim_report_builds_total "); ok {
					if builds, err = strconv.ParseUint(v, 10, 64); err != nil {
						t.Fatalf("metrics line %q: %v", line, err)
					}
					found = true
				}
			}
			if !found {
				t.Fatal("metrics missing structslim_report_builds_total")
			}
			if builds != tc.want || an.ReportBuilds() != tc.want {
				t.Errorf("report builds: metric %d, analyzer %d, want %d", builds, an.ReportBuilds(), tc.want)
			}
		})
	}
}
