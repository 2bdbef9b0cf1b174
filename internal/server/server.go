// Package server exposes the streaming analyzer (internal/stream) over
// HTTP: concurrent clients POST sample batches, the server ingests them
// through bounded per-session queues (with 429 backpressure when a
// client outruns the analyzer), and readers pull advice, live stride
// state, full reports, or a materialized profile snapshot at any time.
// Prometheus-text metrics report ingest throughput, queue depths,
// per-session lag, and eviction counts.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/profile"
	"repro/internal/stream"
	"repro/internal/workloads"
)

// Config tunes the ingest server.
type Config struct {
	// QueueDepth is the per-session batch queue bound; a full queue
	// rejects the POST with 429 and a Retry-After of retryAfter. Zero or
	// negative selects the default, 64.
	QueueDepth int
	// IngestDelay, when non-nil, runs before every batch ingest — a test
	// hook to provoke backpressure deterministically.
	IngestDelay func()
	// Optimize, when non-nil, enables POST /v1/optimize: the server
	// materializes the streamed profile, enumerates candidate layouts for
	// this workload's record, and runs the measured A/B selection loop.
	// Without it the endpoint answers 501.
	Optimize workloads.Workload
	// OptimizeScale is the problem scale candidates are measured at.
	OptimizeScale workloads.Scale
	// OptimizeParallel bounds the A/B loop's worker pool (0 = sequential;
	// results are byte-identical at any value).
	OptimizeParallel int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// retryAfter is the Retry-After value, in seconds, sent with 429.
const retryAfter = "1"

// Server ingests sample batches into a streaming analyzer.
type Server struct {
	an    *stream.Analyzer
	conf  Config
	start time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string]*sessionQueue
	pending  int64 // batches enqueued but not yet ingested, all sessions
	draining bool
	wg       sync.WaitGroup

	samplesTotal atomic.Uint64
	batchesTotal atomic.Uint64
	rejected     atomic.Uint64
	ingestErrors atomic.Uint64
}

// queued is one enqueued batch plus the release hook that returns its
// arena-backed sample storage to the decode pool after ingest (nil for
// NDJSON, which is not pooled).
type queued struct {
	b    stream.Batch
	done func()
}

type sessionQueue struct {
	ch chan queued
}

// New wraps an analyzer in an ingest server.
func New(an *stream.Analyzer, conf Config) *Server {
	s := &Server{an: an, conf: conf.withDefaults(), start: time.Now(), queues: make(map[string]*sessionQueue)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Analyzer returns the wrapped analyzer.
func (s *Server) Analyzer() *stream.Analyzer { return s.an }

// Handler builds the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/samples", s.handleSamples)
	mux.HandleFunc("POST /v1/flush", s.handleFlush)
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("GET /v1/report", s.handleReport)
	mux.HandleFunc("GET /v1/advice/{object}", s.handleAdvice)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/live", s.handleLive)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// enqueue routes one batch to its session queue, spawning the session's
// worker on first sight. Returns false when the queue is full; the
// caller keeps ownership of done unless the batch was accepted.
func (s *Server) enqueue(b stream.Batch, done func()) (bool, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false, fmt.Errorf("server is draining")
	}
	q := s.queues[b.Session]
	if q == nil {
		q = &sessionQueue{ch: make(chan queued, s.conf.QueueDepth)}
		s.queues[b.Session] = q
		s.wg.Add(1)
		go s.worker(q)
	}
	select {
	case q.ch <- queued{b: b, done: done}:
		s.pending++
		s.mu.Unlock()
		return true, nil
	default:
		s.mu.Unlock()
		return false, nil
	}
}

// worker drains one session's queue. One goroutine per session keeps
// batches of a session strictly ordered while sessions ingest in
// parallel (the analyzer locks per session).
func (s *Server) worker(q *sessionQueue) {
	defer s.wg.Done()
	for e := range q.ch {
		if s.conf.IngestDelay != nil {
			s.conf.IngestDelay()
		}
		if err := s.an.Ingest(e.b); err != nil {
			s.ingestErrors.Add(1)
		}
		if e.done != nil {
			e.done()
		}
		s.mu.Lock()
		s.pending--
		s.cond.Broadcast()
		s.mu.Unlock()
		// Yield between batches. A worker with a full queue ingests back
		// to back without blocking, and a batch is only ~0.2 ms of work,
		// so without this an HTTP handler on a busy P waits for Go's
		// 10 ms preemption slice before it can reply.
		runtime.Gosched()
	}
}

// Flush blocks until every enqueued batch has been ingested — the
// consistency barrier readers use before pulling a report that must
// include everything already acknowledged.
func (s *Server) Flush() {
	s.mu.Lock()
	for s.pending > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Drain stops accepting new batches, waits for the queues to empty, and
// stops the workers. Call after http.Server.Shutdown for a graceful
// exit; the analyzer stays queryable afterwards.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	for s.pending > 0 {
		s.cond.Wait()
	}
	for _, q := range s.queues {
		close(q.ch)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request) {
	batches, arena, err := DecodeBatchesArena(r.Body, r.Header.Get("Content-Type"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Validate everything before enqueueing anything: a malformed batch
	// must never leave a prefix of its request ingested.
	for i := range batches {
		if batches[i].Session == "" || batches[i].Period == 0 {
			s.releaseFrom(arena, batches, 0)
			http.Error(w, "batch without session or period", http.StatusBadRequest)
			return
		}
	}
	if len(batches) == 0 {
		http.Error(w, "empty request: no batches", http.StatusBadRequest)
		return
	}
	var done func()
	if arena != nil {
		done = arena.Release
	}
	accepted := 0
	for i := range batches {
		b := batches[i]
		ok, err := s.enqueue(b, done)
		if err != nil {
			s.releaseFrom(arena, batches, i)
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		if !ok {
			// Backpressure: report how much of the request was taken so
			// the client can resend the rest after Retry-After.
			s.releaseFrom(arena, batches, i)
			s.rejected.Add(1)
			w.Header().Set("Retry-After", retryAfter)
			w.Header().Set("X-Accepted-Batches", fmt.Sprint(accepted))
			http.Error(w, "session queue full", http.StatusTooManyRequests)
			return
		}
		accepted++
		s.batchesTotal.Add(1)
		s.samplesTotal.Add(uint64(len(b.Samples)))
	}
	w.WriteHeader(http.StatusAccepted)
}

// releaseFrom drops the arena references of batches[from:] — the ones the
// handler still owns because they were never handed to a worker.
func (s *Server) releaseFrom(arena *Arena, batches []stream.Batch, from int) {
	if arena == nil {
		return
	}
	for range batches[from:] {
		arena.Release()
	}
}

func (s *Server) handleFlush(w http.ResponseWriter, _ *http.Request) {
	s.Flush()
	w.WriteHeader(http.StatusNoContent)
}

// report builds the requested report, after a flush so the result covers
// every acknowledged batch.
func (s *Server) report(r *http.Request) (*core.Report, error) {
	s.Flush()
	if r.URL.Query().Get("source") == "snapshot" {
		p, err := s.an.Snapshot()
		if err != nil {
			return nil, err
		}
		return core.Analyze(p, s.an.Program(), s.an.AnalysisOptions())
	}
	return s.an.Report()
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep, err := s.report(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rep.RenderText(w)
}

func (s *Server) handleAdvice(w http.ResponseWriter, r *http.Request) {
	rep, err := s.report(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	name := r.PathValue("object")
	for _, sr := range rep.Structures {
		if sr.TypeName == name || sr.Name == name {
			writeJSON(w, adviceResponse(sr))
			return
		}
	}
	http.Error(w, fmt.Sprintf("no analyzed structure %q", name), http.StatusNotFound)
}

// handleOptimize closes the loop server-side: flush, materialize the
// streamed profile, analyze it, and run the candidate enumerator + A/B
// selection loop over the configured workload, which measures the
// baseline and every candidate once on the exact machine. The ranked
// groupings come back as JSON (optimize.ResultJSON).
func (s *Server) handleOptimize(w http.ResponseWriter, _ *http.Request) {
	if s.conf.Optimize == nil {
		http.Error(w, "optimize: server was started without an optimizable -workload", http.StatusNotImplemented)
		return
	}
	s.Flush()
	p, err := s.an.Snapshot()
	if err != nil {
		http.Error(w, fmt.Sprintf("optimize: profile has no hot structs: %v", err), http.StatusConflict)
		return
	}
	rep, err := core.Analyze(p, s.an.Program(), s.an.AnalysisOptions())
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	opt := optimize.Options{
		Scale:    s.conf.OptimizeScale,
		Parallel: s.conf.OptimizeParallel,
		Analysis: s.an.AnalysisOptions(),
	}
	res, err := optimize.RunWithReport(s.conf.Optimize, s.an.Program(), rep, opt)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, optimize.ErrNoHotStruct) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, res.JSON())
}

// ContentTypeProfile labels the GET /v1/snapshot body: the merged
// profile in profile.WriteProfile's encoding, not an ingest batch.
const ContentTypeProfile = "application/x-structslim-profile"

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	s.Flush()
	p, err := s.an.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", ContentTypeProfile)
	if err := profile.WriteProfile(w, p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	topK := 0
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("top=%q: want a non-negative integer", v), http.StatusBadRequest)
			return
		}
		topK = n
	}
	writeJSON(w, s.an.Live(topK))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	infos := s.an.Sessions()
	var maxCycle uint64
	for _, si := range infos {
		if si.LastCycle > maxCycle {
			maxCycle = si.LastCycle
		}
	}
	s.mu.Lock()
	depths := make(map[string]int, len(s.queues))
	for id, q := range s.queues {
		depths[id] = len(q.ch)
	}
	s.mu.Unlock()

	uptime := time.Since(s.start).Seconds()
	samples := s.samplesTotal.Load()
	rate := 0.0
	if uptime > 0 {
		rate = float64(samples) / uptime
	}

	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("structslim_samples_total", "Samples accepted for ingest.", samples)
	counter("structslim_batches_total", "Batches accepted for ingest.", s.batchesTotal.Load())
	counter("structslim_rejected_batches_total", "Batches rejected with 429 backpressure.", s.rejected.Load())
	counter("structslim_ingest_errors_total", "Batches the analyzer rejected.", s.ingestErrors.Load())
	counter("structslim_report_builds_total", "Reports built; a read with nothing ingested since the last build reuses it.", s.an.ReportBuilds())
	fmt.Fprintf(&b, "# HELP structslim_sessions Live ingest sessions.\n# TYPE structslim_sessions gauge\nstructslim_sessions %d\n", len(infos))
	fmt.Fprintf(&b, "# HELP structslim_uptime_seconds Server uptime.\n# TYPE structslim_uptime_seconds gauge\nstructslim_uptime_seconds %.3f\n", uptime)
	fmt.Fprintf(&b, "# HELP structslim_samples_per_second Mean accepted-sample rate since start.\n# TYPE structslim_samples_per_second gauge\nstructslim_samples_per_second %.3f\n", rate)

	b.WriteString("# HELP structslim_queue_depth Batches waiting in a session's queue.\n# TYPE structslim_queue_depth gauge\n")
	b.WriteString("# HELP structslim_session_lag_cycles Simulated-cycle lag behind the most recent session.\n# TYPE structslim_session_lag_cycles gauge\n")
	b.WriteString("# HELP structslim_session_cells Accumulation cells a session holds, one per distinct (identity, loop, IP, raw offset).\n# TYPE structslim_session_cells gauge\n")
	b.WriteString("# HELP structslim_evicted_streams_total Stream-state LRU evictions.\n# TYPE structslim_evicted_streams_total counter\n")
	b.WriteString("# HELP structslim_evicted_identities_total Identity-accumulator LRU evictions.\n# TYPE structslim_evicted_identities_total counter\n")
	for _, si := range infos {
		fmt.Fprintf(&b, "structslim_queue_depth{session=%q} %d\n", si.ID, depths[si.ID])
		fmt.Fprintf(&b, "structslim_session_lag_cycles{session=%q} %d\n", si.ID, maxCycle-si.LastCycle)
		fmt.Fprintf(&b, "structslim_session_cells{session=%q} %d\n", si.ID, si.Cells)
		fmt.Fprintf(&b, "structslim_evicted_streams_total{session=%q} %d\n", si.ID, si.EvictedStreams)
		fmt.Fprintf(&b, "structslim_evicted_identities_total{session=%q} %d\n", si.ID, si.EvictedIdentities)
	}
	fmt.Fprint(w, b.String())
}

// Advice is the JSON body of GET /v1/advice/{object}.
type Advice struct {
	Object       string     `json:"object"`
	TypeName     string     `json:"type_name,omitempty"`
	Identity     uint64     `json:"identity"`
	Ld           float64    `json:"latency_share"`
	InferredSize uint64     `json:"inferred_size"`
	TrueSize     int        `json:"true_size,omitempty"`
	Groups       [][]string `json:"groups,omitempty"`
	Offsets      [][]uint64 `json:"offsets,omitempty"`
	Complete     bool       `json:"complete"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func adviceResponse(sr *core.StructReport) Advice {
	a := Advice{
		Object:       sr.Name,
		TypeName:     sr.TypeName,
		Identity:     sr.Identity,
		Ld:           sr.Ld,
		InferredSize: sr.InferredSize,
		TrueSize:     sr.TrueSize,
	}
	if sr.Advice != nil {
		a.Groups = sr.Advice.Groups
		a.Offsets = sr.Advice.Offsets
		a.Complete = sr.Advice.Complete
	}
	return a
}
