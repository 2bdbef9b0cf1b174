package vm

// pipeline.go splits the exact compiled engine in two. No simulated
// latency ever feeds back into functional execution: threads rotate on
// instruction quanta, and both sampling modes select by counting
// accesses or instructions, never cycles. So the functional side
// (stepThreadFast: registers, memory, sample selection and attribution,
// op-cost cycles) can run ahead and queue each access as a record, while
// one timing goroutine replays the records in global retirement order
// through the cache hierarchy, adds each latency to its thread's clock,
// and completes and charges each sample. The hierarchy is the timing
// side's alone until Run joins it.

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
)

const (
	// chunkAccesses and ringChunks size the ring of record chunks shared by
	// the two sides: six chunks of 2048 16-byte records let the functional
	// side run up to five chunks ahead while the ring stays within 200 KiB.
	chunkAccesses = 2048
	ringChunks    = 6

	// The timing side is normally the slower one, so the functional side
	// waits for a free chunk at almost every swap, for about one chunk of
	// timing work. It polls for up to funcSpin, yielding its P between
	// polls, because parking costs a wake-up per chunk. The timing side
	// waits only when the functional side falls behind, and parks after
	// timingSpin so that a host running more simulations than it has Ps
	// gets the P back.
	funcSpin   = 5 * time.Millisecond
	timingSpin = 100 * time.Microsecond
)

// pipelines reports whether this Run times the cache on its own
// goroutine. It is the engine's one selection point. The inline compiled
// path runs when
//   - Config.Reference selects the test oracle (no compiled code);
//   - statistical mode is on: fast-forwards age the hierarchy from the
//     functional side;
//   - any observer other than a GapSampler is attached — access or
//     coherence observers read machine state or see every access as it
//     happens;
//   - there is one P, so nothing could overlap.
func (m *Machine) pipelines() bool {
	switch {
	case m.code == nil,
		m.stat,
		m.Observer != nil && m.gap == nil,
		m.Caches.CoherenceObserver() != nil,
		runtime.GOMAXPROCS(0) == 1:
		return false
	}
	return true
}

// accessRec is one access queued for the timing side. Records are the
// traffic between the two cores, so they are kept to 16 bytes: the
// instruction's IP, size and kind come from the memOp table.
type accessRec struct {
	ea     uint64
	op     uint32 // index into the memOp table
	thread uint32 // index into Machine.Threads, plus sampleBit
}

// sampleBit marks an access the gap sampler selected; its functional
// fields are the chunk's next sampleRec.
const sampleBit = 1 << 31

// memOp is one load or store of the compiled program.
type memOp struct {
	ip    uint64
	size  uint8
	write bool
}

// sampleRec carries the functional side's part of a selected access.
type sampleRec struct {
	obj    *mem.Object // SampleAccess's attribution
	cycles uint64      // the thread's op-cost cycles at the access
	instrs uint64      // MemEvent.Instrs
	ctx    uint64      // MemEvent.Ctx
}

// chunk is one slot of the ring: a run of access records and the
// sample records their sample bits refer to, in order.
type chunk struct {
	accesses []accessRec
	samples  []sampleRec
}

// timingAcct is one thread's clock on the timing side: the latency its
// accesses took and the overhead its samples charged. Run adds them to
// the thread's accounts after the join.
type timingAcct struct {
	core      int
	lat, over uint64
}

// pipeline is one Run's ring of chunks and its timing side. Pipelines are
// pooled across Runs and machines, so a Run allocates no chunks.
type pipeline struct {
	// Functional side.
	cur  *chunk
	free chan *chunk   // chunks the functional side may fill
	full chan *chunk   // filled chunks in retirement order; nil ends the Run
	done chan struct{} // the timing side has drained and stopped

	chunks [ringChunks]chunk

	// Timing side, owned by the timing goroutine from start to join.
	caches *cache.Hierarchy
	gap    GapSampler
	memOps []memOp
	accts  []timingAcct
	ev     MemEvent
	fault  any // a recovered timing-side panic, re-raised by Run
}

var pipelinePool = sync.Pool{New: func() any {
	// full holds every chunk plus the end marker, so sends never block.
	p := &pipeline{
		free: make(chan *chunk, ringChunks),
		full: make(chan *chunk, ringChunks+1),
		done: make(chan struct{}, 1),
	}
	for i := range p.chunks {
		p.chunks[i].accesses = make([]accessRec, 0, chunkAccesses)
		p.free <- &p.chunks[i]
	}
	return p
}}

// startPipeline takes a ring from the pool and starts the timing side for
// the Run's threads.
func startPipeline(h *cache.Hierarchy, gap GapSampler, memOps []memOp, threads []*Thread) *pipeline {
	p := pipelinePool.Get().(*pipeline)
	p.caches, p.gap, p.memOps = h, gap, memOps
	p.accts = p.accts[:0]
	for _, t := range threads {
		p.accts = append(p.accts, timingAcct{core: t.Core})
	}
	p.cur = <-p.free
	go p.time()
	return p
}

// put queues one access of thread; a sample's sampleRec must already be
// queued.
func (p *pipeline) put(ea uint64, op int32, thread int, sample bool) {
	r := accessRec{ea: ea, op: uint32(op), thread: uint32(thread)}
	if sample {
		r.thread |= sampleBit
	}
	c := p.cur
	c.accesses = append(c.accesses, r)
	if len(c.accesses) == chunkAccesses {
		p.full <- c
		p.cur = await(p.free, funcSpin, true)
	}
}

// time is the timing goroutine. After a panic it recycles chunks
// unreplayed, so the functional side never blocks.
func (p *pipeline) time() {
	defer func() { p.done <- struct{}{} }()
	for c := await(p.full, timingSpin, false); c != nil; c = await(p.full, timingSpin, false) {
		if p.fault == nil {
			p.replaySafely(c)
		}
		clear(c.samples) // a pooled chunk must not keep objects alive
		c.accesses, c.samples = c.accesses[:0], c.samples[:0]
		p.free <- c
	}
}

func (p *pipeline) replaySafely(c *chunk) {
	defer func() {
		if r := recover(); r != nil {
			p.fault = r
		}
	}()
	p.replay(c)
}

// replay times one chunk of accesses in retirement order.
func (p *pipeline) replay(c *chunk) {
	h, ops, accts, samples := p.caches, p.memOps, p.accts, c.samples
	for _, r := range c.accesses {
		op := &ops[r.op]
		a := &accts[r.thread&^sampleBit]
		var res cache.Result
		res, a.lat = timeAccess(h, a.core, op.ip, r.ea, op.size, op.write, a.lat)
		if r.thread&sampleBit == 0 {
			continue
		}
		s := &samples[0]
		samples = samples[1:]
		ev := &p.ev
		ev.TID, ev.IP, ev.EA, ev.Size, ev.Write = int(r.thread&^sampleBit), op.ip, r.ea, op.size, op.write
		ev.Instrs, ev.Ctx = s.instrs, s.ctx
		// The inline engine stamps t.Now(): op-cost cycles, then every
		// latency through this access, then the overhead charged before.
		ev.Latency, ev.Level, ev.Cycle = res.Latency, res.Level, s.cycles+a.lat+a.over
		a.over += p.gap.ChargeSample(ev, s.obj)
	}
}

// join queues the last partial chunk and the end marker and waits for the
// timing side to drain and stop.
func (p *pipeline) join() {
	p.full <- p.cur
	p.full <- nil
	await(p.done, funcSpin, true)
	p.cur = nil
}

// release returns a joined pipeline to the pool.
func (p *pipeline) release() {
	p.caches, p.gap, p.memOps, p.fault = nil, nil, nil, nil
	pipelinePool.Put(p)
}

// await receives from ch, polling for up to spin first, and yielding the
// P between polls if yield is set.
func await[T any](ch chan T, spin time.Duration, yield bool) T {
	if len(ch) == 0 {
		start := time.Now()
		for i := 1; len(ch) == 0; i++ {
			if i%1024 != 0 {
				continue
			}
			if time.Since(start) > spin {
				break
			}
			if yield {
				runtime.Gosched()
			}
		}
	}
	return <-ch
}

// timeAccess is the timing model of one access, shared by the inline
// tail of stepThreadFast and the pipelined replay so their arithmetic
// cannot drift: the hierarchy walk, and the clock advanced by its
// latency.
func timeAccess(h *cache.Hierarchy, core int, ip, ea uint64, size uint8, write bool, clock uint64) (cache.Result, uint64) {
	res := h.Access(core, ip, ea, int(size), write)
	return res, clock + uint64(res.Latency)
}
