package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/workloads"
)

// runServe starts the streaming profile service: an HTTP server that
// ingests sample batches (from `structslim push` or any client speaking
// the binary or NDJSON wire format) and serves online analysis.
//
//	structslim serve -workload art [-addr :7080] [-queue 64]
//
// The workload names the binary the analysis reports against: clients
// push samples of that program. On SIGINT/SIGTERM the server stops
// accepting, drains its queues, and prints the final report.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		name       = fs.String("workload", "", "workload whose binary the analysis reports against (empty: snapshot/live only)")
		scale      = fs.String("scale", "test", "problem scale the pushed program was built at: test or bench")
		addr       = fs.String("addr", "127.0.0.1:7080", "listen address")
		queue      = fs.Int("queue", 64, "per-session ingest queue depth (batches)")
		shards     = fs.Int("shards", 8, "session-partitioned analyzer shards (1 = unsharded; results are identical at any count)")
		maxStreams = fs.Int("max-streams", 0, "bound live streams per session, LRU-evicting cold ones (0 = unbounded)")
		maxIdents  = fs.Int("max-identities", 0, "bound tracked identities per session (0 = unbounded)")
		dropSamp   = fs.Bool("drop-samples", false, "do not retain raw samples (disables /v1/snapshot; reports stay exact)")
		topK       = fs.Int("topk", 3, "data structures to analyze in depth")
		thresh     = fs.Float64("affinity", 0.5, "affinity clustering threshold")
		optPar     = fs.Int("optimize-parallel", runtime.GOMAXPROCS(0),
			"worker pool for POST /v1/optimize candidate measurements (results identical at any value)")
		finalRep = fs.Bool("final-report", true, "print the report after draining on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *queue < 1 {
		return fmt.Errorf("serve: -queue %d: want at least 1 batch", *queue)
	}
	sc, err := workloads.ParseScale(*scale)
	if err != nil {
		return err
	}
	conf := stream.Config{
		MaxStreams:    *maxStreams,
		MaxIdentities: *maxIdents,
		DropSamples:   *dropSamp,
		Shards:        *shards,
		Analysis:      core.Options{TopK: *topK, AffinityThreshold: *thresh},
	}
	w, an, err := newAnalyzer(*name, sc, conf)
	if err != nil {
		return err
	}
	sconf := server.Config{QueueDepth: *queue}
	if w != nil && w.Record() != nil {
		// The workload declares a record, so the server can also run the
		// layout optimizer against the pushed profile.
		sconf.Optimize = w
		sconf.OptimizeScale = sc
		sconf.OptimizeParallel = *optPar
	}
	srv := server.New(an, sconf)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(out, "structslim serve: listening on http://%s (workload %q)\n", ln.Addr(), *name)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(out, "structslim serve: %v, draining\n", sig)
	case err := <-errc:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	srv.Drain()
	if *finalRep && *name != "" {
		rep, err := an.Report()
		if err != nil {
			return fmt.Errorf("final report: %w", err)
		}
		fmt.Fprintln(out)
		rep.RenderText(out)
	}
	return nil
}

// newAnalyzer builds the streaming analyzer, rebuilding the named
// workload's binary so reports resolve loops and field names. An empty
// name runs without the binary (ingest, live view, and snapshot only).
func newAnalyzer(name string, sc workloads.Scale, conf stream.Config) (workloads.Workload, *stream.Analyzer, error) {
	if name == "" {
		an, err := stream.New(nil, conf)
		return nil, an, err
	}
	w, err := workloads.Get(name)
	if err != nil {
		return nil, nil, err
	}
	p, _, err := w.Build(nil, sc)
	if err != nil {
		return nil, nil, err
	}
	an, err := stream.New(p, conf)
	return w, an, err
}
