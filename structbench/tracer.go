package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: none
	Op     int    `json:"op"`               // the end-to-end operation the span belongs to
	Name   string `json:"name"`
	Probe  bool   `json:"probe,omitempty"` // a side call made only to attribute time
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, and the self time the workloads attribute
// to each layer. Its methods are safe for concurrent use, and on a nil
// *tracer they record nothing, so untraced rounds pass nil.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	ops    int
	probe  time.Duration            // summed duration of the probe spans
	layers map[string]time.Duration // attributed self time per layer
	order  []string                 // layers in the order first attributed
	rounds int                      // traced rounds, for the per-round table
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layers: make(map[string]time.Duration)}
}

// newOp returns a new identifier for the spans of one operation to share.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its identifier.
func (t *tracer) begin(name string, parent, op int, probe bool) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Probe: probe, Start: start})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	d := time.Duration(s.End - s.Start)
	if s.Probe {
		t.probe += d
	}
	return d
}

// attribute adds d to a layer's self time.
func (t *tracer) attribute(layer string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.layers[layer]; !ok {
		t.order = append(t.order, layer)
	}
	t.layers[layer] += d
}

// probeTime is the summed duration of every probe span so far.
func (t *tracer) probeTime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.probe
}

// attributed is the self time attributed to all layers so far.
func (t *tracer) attributed() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, d := range t.layers {
		sum += d
	}
	return sum
}

// spanRow aggregates the spans of one name.
type spanRow struct {
	name        string
	probe       bool
	count       int
	total, self time.Duration
}

// selfTimes aggregates the spans by name, largest self time first. A
// span's self time is its duration minus the part of it its children
// cover; children may overlap (concurrent clients), so the union of their
// intervals is subtracted.
func (t *tracer) selfTimes() []spanRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanRow)
	var rows []*spanRow
	for _, s := range t.spans {
		key := fmt.Sprint(s.Name, s.Probe)
		r := byName[key]
		if r == nil {
			r = &spanRow{name: s.Name, probe: s.Probe}
			byName[key] = r
			rows = append(rows, r)
		}
		d := time.Duration(s.End - s.Start)
		r.count++
		r.total += d
		r.self += d - covered(s, children[s.ID])
	}
	out := make([]spanRow, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	reached := int64(math.MinInt64)
	for _, k := range kids {
		lo := max(k.Start, parent.Start, reached)
		hi := min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
		}
		reached = max(reached, hi)
	}
	return time.Duration(sum)
}

// printTables prints the self time attributed to each layer per traced
// round, then every span name's count, total and self time.
func (t *tracer) printTables(w io.Writer) {
	t.mu.Lock()
	var sum time.Duration
	for _, d := range t.layers {
		sum += d
	}
	rounds := float64(max(t.rounds, 1))
	fmt.Fprintf(w, " self time per layer, per traced round (%d rounds, probes excluded):\n", t.rounds)
	for _, l := range t.order {
		d := t.layers[l]
		fmt.Fprintf(w, "  %-56s %12.3f ms %6.1f%%\n", l, ms(d)/rounds, 100*ratio(float64(d), float64(sum)))
	}
	t.mu.Unlock()
	fmt.Fprintln(w, " spans by name, whole run (self = duration minus child spans):")
	fmt.Fprintf(w, "  %-56s %8s %14s %14s\n", "span", "count", "total ms", "self ms")
	for _, r := range t.selfTimes() {
		name := r.name
		if r.probe {
			name += " [probe]"
		}
		fmt.Fprintf(w, "  %-56s %8d %14.3f %14.3f\n", name, r.count, ms(r.total), ms(r.self))
	}
}

// write saves every span as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
