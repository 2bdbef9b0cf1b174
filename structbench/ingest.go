package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/structslim"
)

const (
	// ingestPeriod samples the health program densely: about 100k samples
	// per pass over its 4 thread sessions.
	ingestPeriod = 12
	// ingestBatch and ingestWindow frame requests as `structslim push
	// -batch 512 -window 8` does.
	ingestBatch  = 512
	ingestWindow = 8
	// ingestClients is the number of closed-loop clients: one per core of
	// the 2-core machine the benchmark was sized on.
	ingestClients = 2
	// ingestShards is `structslim serve`'s default shard count.
	ingestShards = 8
	// ingestQueue is the per-session queue depth (`structslim serve
	// -queue`). It holds a whole session, so that a client never meets
	// 429 backpressure, whose retry sleeps would swamp the latencies.
	ingestQueue = 1024
)

// ingestReport replays one profile of the 4-thread health program to a
// fresh ingest server each pass, as `structslim push` does: binary
// framing, persistent connections, each client waiting for every reply.
// The pass ends with the report and advice reads.
type ingestReport struct {
	health   program
	opts     structslim.Options
	requests [][][]byte // per session, its request bodies in order
	samples  int
	// want and wantGroups are the batch analysis of the same samples: its
	// rendered report and its split advice for the health record.
	want       []byte
	wantGroups [][]string

	rejected, ingestErrors uint64
}

func (b *ingestReport) terms() terms {
	return terms{
		round: "one pass: a fresh server, 4 sessions pushed by 2 clients, report and advice read",
		op:    "one binary POST /v1/samples (ingest_req_ms)",
		item:  "samples ingested (ingest_samples_per_s)",
	}
}

func (b *ingestReport) setup(seed uint64) error {
	programs, err := buildPrograms([]string{"health"})
	if err != nil {
		return err
	}
	b.health = programs[0]
	b.opts = structslim.Options{SamplePeriod: ingestPeriod, Seed: seed}
	res, err := structslim.ProfileRun(b.health.p, b.health.phases, b.opts)
	if err != nil {
		return err
	}
	rep, err := core.Analyze(res.Profile, b.health.p, b.opts.Analysis)
	if err != nil {
		return err
	}
	record := b.health.w.Record().Name
	sr := structslim.FindStruct(rep, record)
	if sr == nil || sr.Advice == nil {
		return fmt.Errorf("health: no split advice for %s", record)
	}
	b.want, b.wantGroups = render(rep), sr.Advice.Groups
	b.requests = frameRequests(sessionBatches(res.ThreadProfiles))
	b.samples = int(res.Profile.NumSamples)
	return nil
}

func (b *ingestReport) round(tr *tracer, t *tally) error {
	op := tr.newOp()
	root := tr.begin("ingest-report/pass", 0, op, false)
	defer tr.end(root)
	lap := newLap(tr)

	s := tr.begin("stream.New", root, op, false)
	an, err := stream.New(b.health.p, stream.Config{Shards: ingestShards})
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("server.New", root, op, false)
	srv := server.New(an, server.Config{QueueDepth: ingestQueue})
	ts := httptest.NewServer(srv.Handler())
	tr.end(s)
	transport := &http.Transport{MaxIdleConnsPerHost: ingestClients}
	client := &http.Client{Transport: transport}
	lap.mark("stream.New + server.New")

	start := time.Now()
	b.push(tr, root, op, client, ts.URL, t)
	s = tr.begin("server.Flush", root, op, false)
	srv.Flush()
	tr.end(s)
	t.work(float64(b.samples), time.Since(start))
	lap.mark("POST /v1/samples from 2 clients, then server.Flush")

	s = tr.begin("http GET /v1/report", root, op, false)
	t0 := time.Now()
	body, err := get(client, ts.URL+"/v1/report")
	t.readsMs = append(t.readsMs, ms(time.Since(t0)))
	tr.end(s)
	lap.mark("GET /v1/report")
	s = tr.begin("oracle", root, op, false)
	if err == nil && !bytes.Equal(body, b.want) {
		err = fmt.Errorf("GET /v1/report differs from the batch analysis of the same samples (%d vs %d bytes)", len(body), len(b.want))
	}
	tr.end(s)
	t.check(err)
	lap.mark("oracle")

	s = tr.begin("http GET /v1/advice", root, op, false)
	body, err = get(client, ts.URL+"/v1/advice/"+url.PathEscape(b.health.w.Record().Name))
	tr.end(s)
	var adv server.Advice
	if err == nil {
		err = json.Unmarshal(body, &adv)
	}
	if err == nil && !reflect.DeepEqual(adv.Groups, b.wantGroups) {
		err = fmt.Errorf("GET /v1/advice groups %v, the batch analysis advises %v", adv.Groups, b.wantGroups)
	}
	t.check(err)
	lap.mark("GET /v1/advice")

	s = tr.begin("http GET /metrics", root, op, false)
	body, err = get(client, ts.URL+"/metrics")
	tr.end(s)
	if err == nil {
		err = b.scrape(body)
	}
	t.check(err)
	lap.mark("GET /metrics")

	transport.CloseIdleConnections()
	ts.Close()
	srv.Drain()
	lap.mark("teardown")
	return nil
}

// push sends every session's requests. Each client owns every
// ingestClients-th session and sends its requests in order, waiting for
// each reply.
func (b *ingestReport) push(tr *tracer, root, op int, client *http.Client, base string, t *tally) {
	lat := make([][]time.Duration, ingestClients)
	errs := make([][]error, ingestClients)
	var wg sync.WaitGroup
	for c := 0; c < ingestClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for sess := c; sess < len(b.requests); sess += ingestClients {
				for _, body := range b.requests[sess] {
					s := tr.begin("http POST /v1/samples", root, op, false)
					t0 := time.Now()
					err := post(client, base+"/v1/samples", body)
					lat[c] = append(lat[c], time.Since(t0))
					tr.end(s)
					errs[c] = append(errs[c], err)
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range lat {
		for j, d := range lat[c] {
			t.op(d)
			t.check(errs[c][j])
		}
	}
}

// scrape reads the server's rejection and ingest-error counters; either
// being nonzero fails the pass.
func (b *ingestReport) scrape(body []byte) error {
	rejected, err := counter(body, "structslim_rejected_batches_total")
	if err != nil {
		return err
	}
	ingestErrors, err := counter(body, "structslim_ingest_errors_total")
	if err != nil {
		return err
	}
	b.rejected += rejected
	b.ingestErrors += ingestErrors
	if rejected+ingestErrors > 0 {
		return fmt.Errorf("the server rejected %d batches and failed to ingest %d", rejected, ingestErrors)
	}
	return nil
}

func (b *ingestReport) probe(tr *tracer, m metrics, t *tally) error {
	_, err := probeLayers(tr, m, t, []program{b.health}, b.opts)
	return err
}

func (b *ingestReport) extra(t *tally) metrics {
	m := metrics{}
	m.set("ingest_samples_per_s", ratio(t.items, t.busy), "1/s")
	m.set("ingest_req_ms_p50", median(t.opsMs), "ms")
	m.set("ingest_req_ms_p99", tail(t.opsMs), "ms")
	m.set("report_ms_p50", median(t.readsMs), "ms")
	m.set("server.rejected_batches", float64(b.rejected), "count")
	m.set("server.ingest_errors", float64(b.ingestErrors), "count")
	return m
}

// sessionBatches cuts each thread profile into the batch stream
// `structslim push` sends: one session per thread, the object table on
// the first batch, the cycle accounts on the last.
func sessionBatches(tps []*profile.ThreadProfile) [][]stream.Batch {
	out := make([][]stream.Batch, 0, len(tps))
	for _, tp := range tps {
		var batches []stream.Batch
		n := len(tp.Samples)
		for start := 0; ; start += ingestBatch {
			end := min(start+ingestBatch, n)
			bt := stream.Batch{
				Session: fmt.Sprintf("bench-t%03d", tp.TID),
				Process: "bench",
				TID:     int32(tp.TID),
				Period:  tp.Period,
				Seq:     uint64(len(batches)),
				Samples: tp.Samples[start:end],
			}
			if start == 0 {
				bt.Objects = tp.Objects
			}
			if end == n {
				bt.AppCycles, bt.OverheadCycles, bt.MemOps = tp.AppCycles, tp.OverheadCycles, tp.MemOps
			}
			batches = append(batches, bt)
			if end == n {
				break
			}
		}
		out = append(out, batches)
	}
	return out
}

// frameRequests encodes each session's batches as binary request bodies
// of ingestWindow batches each.
func frameRequests(sessions [][]stream.Batch) [][][]byte {
	out := make([][][]byte, len(sessions))
	for i, batches := range sessions {
		for start := 0; start < len(batches); start += ingestWindow {
			var body []byte
			for j := start; j < min(start+ingestWindow, len(batches)); j++ {
				body = server.AppendBatchBinary(body, &batches[j])
			}
			out[i] = append(out[i], body)
		}
	}
	return out
}

func post(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, server.ContentTypeBinary, bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return err
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// counter reads one unlabeled counter from Prometheus text.
func counter(body []byte, name string) (uint64, error) {
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("GET /metrics: no %s", name)
}

// lap attributes consecutive segments of a traced round to layers.
type lap struct {
	tr   *tracer
	last time.Time
}

func newLap(tr *tracer) *lap { return &lap{tr: tr, last: time.Now()} }

func (l *lap) mark(layer string) {
	now := time.Now()
	l.tr.attribute(layer, now.Sub(l.last))
	l.last = now
}
