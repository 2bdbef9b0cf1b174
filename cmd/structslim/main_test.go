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
