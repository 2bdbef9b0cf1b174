// Command structbench is StructSlim's benchmark. Each run drives one
// closed-loop workload through the system's public entry points for a
// fixed time and checks every output against an independent oracle.
//
// run.sh builds it from source and runs it from the repository root:
//
//	bash structbench/run.sh --workload profile-advice --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 first probes every
// layer on the workload's own inputs, then alternates untraced and traced
// rounds, recording spans around each layer call, and reports the
// per-layer metrics with a self-time table. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A run repeats its set-up at least setupMinReps times, and more while
// the repetitions have taken less than setupBudget, up to setupMaxReps.
// setup_s is the median, so one slow repetition does not move it, and a
// set-up of a fraction of a millisecond is still timed many times over.
const (
	setupMinReps = 5
	setupMaxReps = 201
	setupBudget  = time.Second
)

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []string{"setup_s", "max_rss_mb", "round_s", "op_p50_ms", "op_tail_ms", "throughput_per_s"}

// A workload is one closed-loop traffic mix.
type workload interface {
	// setup builds the inputs for one seed; the runner times it as setup_s.
	setup(seed uint64) error
	// round runs one round of operations and checks each against its
	// oracle. tr is nil on untraced rounds. An error means the benchmark
	// itself could not go on; failed operations go to the tally.
	round(tr *tracer, t *tally) error
	// probe times each layer's entry points on the workload's inputs and
	// stores the per-layer metrics in m.
	probe(tr *tracer, m metrics, t *tally) error
	// terms says what one round, one operation and one work item are.
	terms() terms
	// extra derives the workload's own figures from an untraced run,
	// under the names the printed table gives them.
	extra(t *tally) metrics
}

type terms struct{ round, op, item string }

func newWorkload(name string) (workload, error) {
	switch name {
	case "profile-advice":
		return &profileAdvice{}, nil
	case "ingest-report":
		return &ingestReport{}, nil
	case "optimize-select":
		return &optimizeSelect{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want profile-advice, ingest-report or optimize-select)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "profile-advice, ingest-report or optimize-select")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		out     = flag.String("out", "", "directory a traced run writes its spans to (empty: not written)")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "structbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(os.Stdout, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "structbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "structbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, measures it for dur and prints the metric
// table to w.
func run(w io.Writer, name string, seed uint64, dur time.Duration, traced bool, outDir string) (*result, error) {
	wl, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for start := time.Now(); len(setups) < setupMinReps ||
		(len(setups) < setupMaxReps && time.Since(start) < setupBudget); {
		// Every set-up starts from a collected heap, so none pays for
		// another's garbage.
		runtime.GC()
		t0 := time.Now()
		if err := wl.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t := &tally{}
	// One round before any timing, so that allocator growth and
	// first-touch costs are paid up front; its checks still count.
	if err := wl.round(nil, t); err != nil {
		return nil, err
	}
	t.resetTimings()

	m := metrics{}
	if !traced {
		if err := measure(wl, t, dur); err != nil {
			return nil, err
		}
		m.set("setup_s", median(setups), "s")
		m.set("max_rss_mb", maxRSSMiB(), "MiB")
		m.set("round_s", median(t.rounds), "s")
		m.set("op_p50_ms", median(t.opsMs), "ms")
		m.set("op_tail_ms", tail(t.opsMs), "ms")
		m.set("throughput_per_s", ratio(t.items, t.busy), "1/s")
		printMetrics(w, name, seed, wl.terms(), t, m, endToEnd)
		fmt.Fprintf(w, "  (setup_s is the median of %d set-ups)\n", len(setups))
		ex := wl.extra(t)
		ex.set("error_rate", ratio(float64(t.failed), float64(t.attempted)), "failed/attempted")
		fmt.Fprintln(w, " workload figures:")
		printMetrics(w, "", 0, terms{}, nil, ex, sortedKeys(ex))
	} else {
		tr := newTracer()
		if err := measureTraced(wl, tr, t, m, dur); err != nil {
			return nil, err
		}
		printMetrics(w, name, seed, wl.terms(), t, m, sortedKeys(m))
		tr.printTables(w)
		if outDir != "" {
			path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
			if err := tr.write(path, name, seed); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "spans written to %s\n", path)
		}
	}
	for _, f := range t.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// measure runs untraced rounds until dur has passed.
func measure(wl workload, t *tally, dur time.Duration) error {
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		if err := wl.round(nil, t); err != nil {
			return err
		}
		t.rounds = append(t.rounds, time.Since(t0).Seconds())
	}
	return nil
}

// measureTraced probes every layer, then alternates untraced and traced
// rounds until dur has passed. Probe spans are left out of the traced
// round times, so trace_overhead_pct is the cost of the tracing alone;
// trace.accounted_pct compares the layer self times of a traced round
// with the untraced round time.
func measureTraced(wl workload, tr *tracer, t *tally, m metrics, dur time.Duration) error {
	if err := wl.probe(tr, m, t); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	var plain, accounted []float64
	deadline := time.Now().Add(dur)
	for len(t.rounds) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		if err := wl.round(nil, t); err != nil {
			return err
		}
		plain = append(plain, time.Since(t0).Seconds())
		probe0, attr0 := tr.probeTime(), tr.attributed()
		t0 = time.Now()
		if err := wl.round(tr, t); err != nil {
			return err
		}
		wall := time.Since(t0) - (tr.probeTime() - probe0)
		t.rounds = append(t.rounds, wall.Seconds())
		accounted = append(accounted, (tr.attributed() - attr0).Seconds())
	}
	tr.rounds = len(t.rounds)
	m.set("trace_overhead_pct", 100*(median(t.rounds)/median(plain)-1), "%")
	m.set("trace.accounted_pct", 100*median(accounted)/median(plain), "%")
	return nil
}

// printMetrics prints one line per metric. A non-nil tally adds the
// run's header line.
func printMetrics(w io.Writer, name string, seed uint64, tm terms, t *tally, m metrics, order []string) {
	if t != nil {
		fmt.Fprintf(w, "structbench %s, seed %d: %d timed rounds, %d of %d checked operations failed\n",
			name, seed, len(t.rounds), t.failed, t.attempted)
	}
	desc := map[string]string{
		"setup_s":          "median set-up time",
		"max_rss_mb":       "peak resident set size (getrusage)",
		"round_s":          "median per round: " + tm.round,
		"op_p50_ms":        "median per operation: " + tm.op,
		"op_tail_ms":       "highest percentile with at least 10 operations beyond it",
		"throughput_per_s": tm.item + " per second",
	}
	for _, k := range order {
		fmt.Fprintf(w, "  %-32s %18.6f %-16s %s\n", k, m[k].Value, m[k].Unit, desc[k])
	}
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
