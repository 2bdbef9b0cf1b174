package main

import (
	"io"
	"strings"
	"testing"
)

// TestPushRejectsGob: the retired gob codec is refused before push
// resolves the workload, so nothing is profiled or sent.
func TestPushRejectsGob(t *testing.T) {
	err := runPush([]string{"-workload", "nosuch", "-codec", "gob"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown codec "gob" (want binary or ndjson)`) {
		t.Fatalf("push -codec gob: %v, want an unknown-codec error", err)
	}
}
