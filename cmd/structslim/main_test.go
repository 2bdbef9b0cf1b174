package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/workloads"
	"repro/structslim"
)

// runLine profiles art with extra flags and returns the full output and
// its "Run:" summary line (instructions, accesses, app cycles).
func runLine(t *testing.T, extra ...string) (out, run string) {
	t.Helper()
	var buf bytes.Buffer
	args := append([]string{"-workload", "art", "-period", "3000"}, extra...)
	if err := runProfile(args, &buf); err != nil {
		t.Fatalf("%v: %v", extra, err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "Run:") {
			return buf.String(), line
		}
	}
	t.Fatalf("%v: no Run: line in output", extra)
	return "", ""
}

// TestStatWindowSelectsStatisticalMode: -stat-window N on its own must
// profile statistically at W=N rather than silently run exactly, and
// -statistical alone must use the default window.
func TestStatWindowSelectsStatisticalMode(t *testing.T) {
	exactOut, exactRun := runLine(t)
	if strings.Contains(exactOut, "statistical simulation") {
		t.Fatal("exact run printed a statistical report")
	}
	for _, tc := range []struct {
		flags  []string
		report string
	}{
		{[]string{"-stat-window", "32"}, "statistical simulation (window W=32)"},
		{[]string{"-statistical"}, "statistical simulation (window W=64)"},
		{[]string{"-statistical", "-stat-window", "32"}, "statistical simulation (window W=32)"},
	} {
		out, run := runLine(t, tc.flags...)
		if !strings.Contains(out, tc.report) {
			t.Errorf("%v: output lacks %q", tc.flags, tc.report)
		}
		if run == exactRun {
			t.Errorf("%v: app cycles identical to the exact run (%s)", tc.flags, run)
		}
	}
}

// TestOptimizeAppliesPrintedAdvice: -optimize measures the layout of the
// advice it prints for the hot record. On health at period 3000 a second
// profile at another seed advises a different split, so a layout taken
// from anywhere but the printed report shows here.
func TestOptimizeAppliesPrintedAdvice(t *testing.T) {
	var buf bytes.Buffer
	if err := runProfile([]string{"-workload", "health", "-period", "3000", "-optimize"}, &buf); err != nil {
		t.Fatal(err)
	}
	var groups []string
	var layout string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "    struct Patient_"); ok {
			_, body, _ := strings.Cut(rest, "{")
			body, _, _ = strings.Cut(body, "}")
			var names []string
			for _, decl := range strings.Split(body, ";") {
				if f := strings.Fields(decl); len(f) > 0 {
					names = append(names, f[len(f)-1])
				}
			}
			groups = append(groups, strings.Join(names, ","))
		}
		if rest, ok := strings.CutPrefix(line, "  layout: "); ok {
			layout = rest
		}
	}
	if len(groups) == 0 || layout == "" {
		t.Fatalf("no Patient advice or layout line in output:\n%s", buf.String())
	}
	if want := "Patient{" + strings.Join(groups, " | ") + "}"; layout != want {
		t.Errorf("applied layout %s, printed advice %s", layout, want)
	}
}

// TestAnalyzeProfileFiles: -profiles d, then -analyze d, prints the
// direct run's report bytes, followed by the merged profile's own
// accounts where the direct run prints the machine's (the files hold no
// instruction count). Every file in d, posted as it is, makes a server
// report the same bytes.
func TestAnalyzeProfileFiles(t *testing.T) {
	dir := t.TempDir()
	var direct, offline bytes.Buffer
	if err := runProfile([]string{"-workload", "clomp", "-period", "3000", "-profiles", dir}, &direct); err != nil {
		t.Fatal(err)
	}
	if err := runProfile([]string{"-workload", "clomp", "-period", "3000", "-analyze", dir}, &offline); err != nil {
		t.Fatal(err)
	}
	report, _, ok := strings.Cut(direct.String(), "Run: ")
	if !ok {
		t.Fatalf("direct run printed no Run: line:\n%s", direct.String())
	}
	w, err := workloads.Get("clomp")
	if err != nil {
		t.Fatal(err)
	}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := structslim.ProfileRun(p, phases, structslim.Options{SamplePeriod: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("Analyzed %d thread profiles from %s (offline)\n\n%s"+
		"Profile: %d memory accesses, %d app cycles (max over threads), overhead %.2f%%\n",
		len(res.ThreadProfiles), dir, report, res.Profile.MemOps, res.Profile.AppCycles, res.Profile.OverheadPct())
	if got := offline.String(); got != want {
		t.Errorf("-analyze output:\n%s\nwant:\n%s", got, want)
	}

	an, err := stream.New(p, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(an, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	files, err := filepath.Glob(filepath.Join(dir, "profile.*.ssb"))
	if err != nil || len(files) != len(res.ThreadProfiles) {
		t.Fatalf("profile files %v (%v), want %d", files, err, len(res.ThreadProfiles))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/samples", server.ContentTypeBinary, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s: %d", f, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != report {
		t.Errorf("report of the posted profile files differs from the direct run's:\n%s", body)
	}
}
