// Package runner is the concurrent experiment engine: a bounded
// worker-pool scheduler with a keyed result cache.
//
// Regenerating the paper's evaluation is embarrassingly parallel work —
// every table, figure, ablation, and robustness row is an independent,
// deterministically seeded simulation — and much of it is *repeated*
// work: Table 3 and Table 4 read the same original/split runs, Figures
// 7–13 re-run the seven Table 3 pipelines, and Tables 5/6 and Figure 6
// share one profiled ART run. The runner addresses both: jobs execute on
// at most N workers, and identical jobs (same canonical key) execute
// once, with every consumer handed the same result.
//
// Because every simulation is deterministically seeded and builds its own
// machine, results are byte-identical to the sequential path regardless
// of worker count or completion order; callers are responsible for
// emitting results in input order, which Collect preserves.
//
// Deadlock rule: a job body must not synchronously submit and wait for
// another job on the same pool — it would hold a worker token while
// waiting for one. Compose jobs from orchestration code instead (see
// internal/tables.Engine), which holds no token while it waits.
package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool with a keyed result cache. The zero
// value is not usable; use New.
type Pool struct {
	sem chan struct{}

	mu    sync.Mutex
	calls map[string]*call

	started uint64 // jobs actually executed
	deduped uint64 // submissions answered from the cache or joined in flight
}

// call is one executed (or executing) job.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a pool running at most workers jobs concurrently.
// workers <= 1 gives a sequential pool (still with the keyed cache).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{
		sem:   make(chan struct{}, workers),
		calls: make(map[string]*call),
	}
}

// Stats reports how many jobs ran and how many submissions were answered
// without running (cache hits plus in-flight joins).
func (p *Pool) Stats() (started, deduped uint64) {
	return atomic.LoadUint64(&p.started), atomic.LoadUint64(&p.deduped)
}

// Do runs fn under the pool, deduplicated by key: the first submission
// of a key executes (bounded by the worker limit), concurrent and later
// submissions of the same key wait for — and share — that execution's
// result. Waiters hold no worker token.
func (p *Pool) Do(key string, fn func() (any, error)) (any, error) {
	p.mu.Lock()
	if c, ok := p.calls[key]; ok {
		p.mu.Unlock()
		atomic.AddUint64(&p.deduped, 1)
		<-c.done
		return c.val, c.err
	}
	c := &call{done: make(chan struct{})}
	p.calls[key] = c
	p.mu.Unlock()

	atomic.AddUint64(&p.started, 1)
	p.sem <- struct{}{}
	func() {
		defer func() { <-p.sem }()
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("job %q panicked: %v", key, r)
			}
		}()
		c.val, c.err = fn()
	}()
	close(c.done)
	return c.val, c.err
}

// Future is a handle to a job submitted with Go.
type Future struct {
	done chan struct{}
	val  any
	err  error
}

// Wait blocks until the job completes and returns its result.
func (f *Future) Wait() (any, error) {
	<-f.done
	return f.val, f.err
}

// Go submits fn asynchronously (same dedup semantics as Do) and returns
// a Future for its result.
func (p *Pool) Go(key string, fn func() (any, error)) *Future {
	f := &Future{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.val, f.err = p.Do(key, fn)
	}()
	return f
}

// Cached is the typed form of Pool.Do.
func Cached[R any](p *Pool, key string, fn func() (R, error)) (R, error) {
	v, err := p.Do(key, func() (any, error) { return fn() })
	if err != nil {
		var zero R
		return zero, err
	}
	r, ok := v.(R)
	if !ok {
		var zero R
		return zero, fmt.Errorf("job %q: cached result is %T, want %T", key, v, zero)
	}
	return r, nil
}

// Collect runs one orchestration function per job concurrently and
// returns the results in input order. The run functions themselves are
// not token-bounded — they are expected to spend their time waiting on
// keyed leaf jobs (Do/Cached), which are. The first error (in input
// order) is returned, after all jobs finish.
func Collect[J, R any](p *Pool, jobs []J, run func(J) (R, error)) ([]R, error) {
	out := make([]R, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j J) {
			defer wg.Done()
			out[i], errs[i] = run(j)
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
