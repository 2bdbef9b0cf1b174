package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// median is the middle of xs, or the mean of the two middle values for
// an even count; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile with at least ten samples beyond it: of
// n sorted values, the one at index n-11. With ten or fewer values no
// such percentile exists, and tail returns the largest.
func tail(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n <= 10 {
		return s[n-1]
	}
	return s[n-11]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0, so that no metric is NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tally collects one run's checked operations and timings.
type tally struct {
	attempted, failed int
	failures          []string // the first few failure messages
	opsMs             []float64
	readsMs           []float64 // reads made beside the operations (GET /v1/report)
	rounds            []float64 // seconds per timed round
	items, busy       float64   // work items the operations completed, and the seconds they took
}

// check counts one checked operation; err is its failure, if any.
func (t *tally) check(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, err.Error())
	}
}

func (t *tally) op(d time.Duration) { t.opsMs = append(t.opsMs, ms(d)) }

func (t *tally) work(items float64, d time.Duration) {
	t.items += items
	t.busy += d.Seconds()
}

func (t *tally) resetTimings() {
	t.opsMs, t.readsMs, t.rounds, t.items, t.busy = nil, nil, nil, 0, 0
}
