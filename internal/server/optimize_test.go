package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/optimize"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/workloads"
	"repro/structslim"
)

// optimizeServer spins up an ingest server with the optimizer enabled
// for the named workload.
func optimizeServer(t *testing.T, name string) (workloads.Workload, *server.Server, *httptest.Server) {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	an, err := stream.New(p, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(an, server.Config{
		Optimize:         w,
		OptimizeScale:    workloads.ScaleTest,
		OptimizeParallel: 4,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Drain)
	return w, srv, ts
}

func post(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "", nil)
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

// TestOptimizeEndpoint pushes a profile and asks the server for the
// ranked layout selection; the response must decode and carry a
// selection that is the fastest measured row and no slower than the
// baseline.
func TestOptimizeEndpoint(t *testing.T) {
	w, _, ts := optimizeServer(t, "mislaid")
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := structslim.ProfileRun(p, phases, testOpt)
	if err != nil {
		t.Fatal(err)
	}
	resp := postBatches(t, ts, batchesOf(res, 64))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("push: %s", resp.Status)
	}

	code, body := post(t, ts, "/v1/optimize")
	if code != http.StatusOK {
		t.Fatalf("POST /v1/optimize: %d: %s", code, body)
	}
	var oj optimize.ResultJSON
	if err := json.Unmarshal(body, &oj); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	if oj.Workload != "mislaid" || len(oj.Candidates) == 0 {
		t.Fatalf("unexpected result: workload=%q candidates=%d", oj.Workload, len(oj.Candidates))
	}
	if oj.ExactSelectedCycles == 0 || oj.ExactSelectedCycles > oj.ExactBaselineCycles {
		t.Errorf("selected %d cycles vs baseline %d: selection must not lose",
			oj.ExactSelectedCycles, oj.ExactBaselineCycles)
	}
	if oj.Selected.Layout == "" {
		t.Error("no selected layout in response")
	}

	// Every row is an exact measurement and the selection is the fastest.
	if oj.Selected.Layout != oj.Candidates[0].Layout {
		t.Errorf("selected %s, but the fastest row is %s", oj.Selected.Layout, oj.Candidates[0].Layout)
	}
	for _, c := range oj.Candidates {
		if c.Cycles == 0 || c.Cycles < oj.ExactSelectedCycles {
			t.Errorf("row %s: %d cycles, selection %d", c.Label, c.Cycles, oj.ExactSelectedCycles)
		}
	}
}

// TestOptimizeEndpointNoSamples: a configured server with nothing
// ingested must answer 409 with a clear message.
func TestOptimizeEndpointNoSamples(t *testing.T) {
	_, _, ts := optimizeServer(t, "mislaid")
	code, body := post(t, ts, "/v1/optimize")
	if code != http.StatusConflict {
		t.Fatalf("POST /v1/optimize on empty server: %d (want 409): %s", code, body)
	}
	if want := "no hot structs"; !strings.Contains(string(body), want) {
		t.Errorf("409 body %q does not mention %q", body, want)
	}
}

// TestOptimizeEndpointUnconfigured: without an optimizable workload the
// endpoint is 501, not a crash.
func TestOptimizeEndpointUnconfigured(t *testing.T) {
	an, err := stream.New(nil, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(an, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	code, body := post(t, ts, "/v1/optimize")
	if code != http.StatusNotImplemented {
		t.Fatalf("POST /v1/optimize without workload: %d (want 501): %s", code, body)
	}
}
