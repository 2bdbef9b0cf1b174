package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/workloads"
	"repro/structslim"
)

// runPush profiles a workload locally and replays its per-thread sample
// streams to a `structslim serve` instance over HTTP — the zero-to-demo
// client of the streaming service, and the reference implementation of
// the wire protocol: one session per thread, object table on the first
// batch, cycle accounts on the last, 429 backpressure honored with
// capped exponential backoff.
//
// The client is pipelined: sessions push concurrently over persistent
// connections, and each request carries a window of -window consecutive
// batches (one request per batch was the PR-5 protocol; windowing keeps
// a session's batches ordered while cutting the round trips by the
// window size). Encode buffers are pooled across requests.
//
//	structslim push -workload art [-addr 127.0.0.1:7080] [-batch 256] [-window 8] [-selftest]
func runPush(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("push", flag.ContinueOnError)
	var (
		name       = fs.String("workload", "", "workload to profile and push")
		scale      = fs.String("scale", "test", "problem scale: test or bench")
		addr       = fs.String("addr", "127.0.0.1:7080", "server address")
		period     = fs.Uint64("period", 10_000, "address-sampling period in memory accesses")
		seed       = fs.Uint64("seed", 1, "sampling randomization seed")
		batchSize  = fs.Int("batch", 256, "samples per pushed batch")
		window     = fs.Int("window", 8, "batches sent per request (in-flight batch window)")
		codec      = fs.String("codec", "binary", "wire format: binary, gob, or ndjson")
		ndjson     = fs.Bool("ndjson", false, "push NDJSON instead of binary (alias for -codec ndjson)")
		maxRetries = fs.Int("max-retries", 10, "consecutive 429 retries per request before giving up")
		wait       = fs.Duration("wait", 10*time.Second, "how long to retry connecting to the server")
		selftest   = fs.Bool("selftest", false, "fetch the server's reports and diff them against the local batch analysis")
		doOpt      = fs.Bool("optimize", false, "after the push, ask the server to run the layout optimizer (POST /v1/optimize) and print the ranked table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("push: need -workload")
	}
	if *batchSize <= 0 {
		return fmt.Errorf("push: -batch must be positive")
	}
	if *window <= 0 {
		return fmt.Errorf("push: -window must be positive")
	}
	ct, err := contentTypeFor(*codec, *ndjson)
	if err != nil {
		return err
	}

	w, err := workloads.Get(*name)
	if err != nil {
		return err
	}
	sc, err := workloads.ParseScale(*scale)
	if err != nil {
		return err
	}
	p, phases, err := w.Build(nil, sc)
	if err != nil {
		return err
	}
	opt := structslim.Options{SamplePeriod: *period, Seed: *seed}
	res, err := structslim.ProfileRun(p, phases, opt)
	if err != nil {
		return err
	}

	base := "http://" + *addr
	if err := waitForServer(base, *wait); err != nil {
		return err
	}

	// Persistent connections: one shared transport with enough idle slots
	// that every session keeps its connection alive between requests.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        len(res.ThreadProfiles) + 2,
		MaxIdleConnsPerHost: len(res.ThreadProfiles) + 2,
	}}
	pusher := &pusher{client: client, base: base, ct: ct, maxRetries: *maxRetries}

	// Sessions are independent ordered streams, so they push in parallel;
	// within a session, requests go out serially to preserve batch order.
	var wg sync.WaitGroup
	errs := make(chan error, len(res.ThreadProfiles))
	for _, tp := range res.ThreadProfiles {
		wg.Add(1)
		go func(tp *profile.ThreadProfile) {
			defer wg.Done()
			session := fmt.Sprintf("push-t%03d", tp.TID)
			if err := pusher.pushSession(session, "push", tp, *batchSize, *window); err != nil {
				errs <- fmt.Errorf("push: session %s: %w", session, err)
			}
		}(tp)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	fmt.Fprintf(out, "structslim push: %d samples in %d batches (%d sessions, %d/request) to %s\n",
		pusher.samples.Load(), pusher.batches.Load(), len(res.ThreadProfiles), *window, base)

	if *doOpt {
		// The server reruns the A/B selection loop over everything it has
		// ingested and returns the ranked groupings; rendering the wire
		// form here reproduces the server-side table exactly.
		body, err := httpPost(base + "/v1/optimize")
		if err != nil {
			return fmt.Errorf("optimize: %w", err)
		}
		var oj optimize.ResultJSON
		if err := json.Unmarshal(body, &oj); err != nil {
			return fmt.Errorf("optimize: decoding response: %w", err)
		}
		fmt.Fprintln(out)
		oj.RenderText(out)
	}

	if !*selftest {
		return nil
	}

	// Self-test: the server's online report and its snapshot-derived
	// report must both be byte-identical to the local batch analysis.
	local, err := core.Analyze(res.Profile, p, opt.Analysis)
	if err != nil {
		return err
	}
	var want bytes.Buffer
	local.RenderText(&want)
	for _, path := range []string{"/v1/report", "/v1/report?source=snapshot"} {
		body, err := httpGet(base + path)
		if err != nil {
			return fmt.Errorf("selftest: %s: %w", path, err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			return fmt.Errorf("selftest: GET %s differs from local batch report (%d vs %d bytes)",
				path, len(body), want.Len())
		}
	}
	fmt.Fprintln(out, "structslim push: selftest ok — server reports byte-identical to local analysis")
	return nil
}

func contentTypeFor(codec string, ndjson bool) (string, error) {
	if ndjson {
		codec = "ndjson"
	}
	switch codec {
	case "binary":
		return server.ContentTypeBinary, nil
	case "gob":
		return server.ContentTypeGob, nil
	case "ndjson":
		return server.ContentTypeNDJSON, nil
	default:
		return "", fmt.Errorf("push: unknown codec %q (want binary, gob, or ndjson)", codec)
	}
}

// pusher holds the shared client state of one push run.
type pusher struct {
	client     *http.Client
	base       string
	ct         string
	maxRetries int

	bufs    sync.Pool // *bytes.Buffer, reused across requests
	samples atomic.Int64
	batches atomic.Int64
}

// pushSession replays one thread profile as an ordered batch stream:
// object table on the first batch, cycle accounts on the last, windows of
// up to `window` batches per request.
func (p *pusher) pushSession(session, process string, tp *profile.ThreadProfile, batchSize, window int) error {
	var pending []stream.Batch
	n := len(tp.Samples)
	var seq uint64
	for start := 0; start < n || start == 0; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		b := stream.Batch{
			Session: session,
			Process: process,
			TID:     int32(tp.TID),
			Period:  tp.Period,
			Seq:     seq,
			Samples: tp.Samples[start:end],
		}
		if start == 0 {
			b.Objects = tp.Objects
		}
		if end == n {
			b.AppCycles = tp.AppCycles
			b.OverheadCycles = tp.OverheadCycles
			b.MemOps = tp.MemOps
		}
		pending = append(pending, b)
		p.samples.Add(int64(end - start))
		seq++
		if len(pending) == window {
			if err := p.postWindow(pending); err != nil {
				return err
			}
			pending = pending[:0]
		}
		if end == n {
			break
		}
	}
	if len(pending) > 0 {
		return p.postWindow(pending)
	}
	return nil
}

// postWindow sends one window of batches, honoring 429 + Retry-After
// backpressure: the server reports how many batches of the request it
// accepted (X-Accepted-Batches), the client drops that prefix, sleeps
// max(Retry-After, capped exponential backoff), and resends the rest.
// The retry counter resets whenever the server makes progress; after
// maxRetries consecutive no-progress rejections the push fails.
func (p *pusher) postWindow(batches []stream.Batch) error {
	buf, _ := p.bufs.Get().(*bytes.Buffer)
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	defer p.bufs.Put(buf)

	const (
		baseBackoff = 100 * time.Millisecond
		maxBackoff  = 10 * time.Second
	)
	retries := 0
	backoff := baseBackoff
	for {
		buf.Reset()
		if err := server.EncodeBatches(buf, p.ct, batches); err != nil {
			return err
		}
		resp, err := p.client.Post(p.base+"/v1/samples", p.ct, bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			p.batches.Add(int64(len(batches)))
			return nil
		case http.StatusTooManyRequests:
			// The server enqueues a request's batches in order, so the
			// accepted count is a resumable prefix.
			accepted := 0
			if v, err := strconv.Atoi(resp.Header.Get("X-Accepted-Batches")); err == nil && v > 0 {
				if v > len(batches) {
					v = len(batches)
				}
				accepted = v
			}
			p.batches.Add(int64(accepted))
			batches = batches[accepted:]
			if accepted > 0 {
				retries, backoff = 0, baseBackoff
			} else {
				retries++
				if retries > p.maxRetries {
					return fmt.Errorf("giving up after %d consecutive backpressure rejections", retries-1)
				}
			}
			delay := backoff
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				if d := time.Duration(ra) * time.Second; d > delay {
					delay = d
				}
			}
			time.Sleep(delay)
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		default:
			return fmt.Errorf("server returned %s", resp.Status)
		}
	}
}

// waitForServer polls /metrics until the server answers.
func waitForServer(base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not reachable: %w", base, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func httpPost(url string) ([]byte, error) {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, body)
	}
	return body, nil
}
