package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// TestServeRejectsNonPositiveQueue: serve refuses a queue depth below one
// before it listens. A serve that accepted it would block until a signal,
// so the test waits only a bounded time.
func TestServeRejectsNonPositiveQueue(t *testing.T) {
	for _, q := range []string{"-1", "0"} {
		done := make(chan error, 1)
		go func() { done <- runServe([]string{"-queue", q, "-addr", "127.0.0.1:0"}, io.Discard) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "-queue "+q) {
				t.Errorf("serve -queue %s: %v, want a -queue error", q, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("serve -queue %s is serving, want it refused", q)
		}
	}
}
