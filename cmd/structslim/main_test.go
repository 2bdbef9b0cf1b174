package main

import (
	"bytes"
	"strings"
	"testing"
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
