package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/optimize"
	"repro/internal/workloads"
)

// TestOptimizeRejectsUnknownScale: a misspelt -scale is an error naming
// the valid scales, returned before anything is measured or printed, not
// a silent test-scale run.
func TestOptimizeRejectsUnknownScale(t *testing.T) {
	_, want := workloads.ParseScale("bnech")
	var out bytes.Buffer
	err := runOptimize([]string{"-workload", "mislaid", "-scale", "bnech"}, &out)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("runOptimize -scale bnech: error %v, want %v", err, want)
	}
	if out.Len() != 0 {
		t.Errorf("output before the error:\n%s", out.String())
	}
}

// TestOptimizeJSONFile: -json <file> writes the wire form. It decodes,
// selects the layout the rendered table names, and has no mode key.
func TestOptimizeJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "optimize.json")
	var table bytes.Buffer
	args := []string{"-workload", "mislaid", "-period", "3000", "-seed", "7", "-parallel", "2", "-json", path}
	if err := runOptimize(args, &table); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var oj optimize.ResultJSON
	if err := json.Unmarshal(data, &oj); err != nil {
		t.Fatalf("decoding %s: %v\n%s", path, err, data)
	}
	var selected string
	for _, line := range strings.Split(table.String(), "\n") {
		if s, ok := strings.CutPrefix(line, "selected: "); ok {
			selected = s
		}
	}
	if selected == "" || oj.Selected.Layout != selected {
		t.Errorf("JSON selects %q, the table %q", oj.Selected.Layout, selected)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["mode"]; ok {
		t.Errorf("JSON still carries a mode key: %s", keys["mode"])
	}
}
