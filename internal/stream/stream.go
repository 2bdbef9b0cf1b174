// Package stream is StructSlim's online analyzer: it consumes address-
// sample batches from any number of concurrent sessions (one session per
// profiled thread, optionally grouped into processes) and maintains the
// paper's per-stream state incrementally — last effective address, the
// running GCD of address deltas (Equations 2–3), and the sample count k
// that drives the Equation 4 accuracy bound — plus per-identity
// accumulators (core.IdentityAccum) for the hot-data ranking, field and
// loop tables, and latency-weighted affinities (Equations 1, 6, 7).
//
// Because every per-sample quantity is accumulated either per stream
// (order-sensitive only within a session, exactly like the per-thread
// profiler) or in order-insensitive cells keyed by raw element offset,
// the analyzer can serve three views at any moment:
//
//   - Report: a full core.Report, built by core.BuildReport folding each
//     session's accumulators in place with every session locked in the
//     canonical (process, TID, id) order — one consistent cut across
//     sessions, with no accumulation cell copied — byte-identical to the
//     batch analyzer given the same complete event stream, with no need
//     to retain raw samples. A report is built once per ingest
//     generation, which every accepted batch and every new session
//     bumps, and shared by every read until the next bump: a read that
//     finds it takes no session lock, and callers must not modify it;
//   - Snapshot: a materialized profile.Profile, produced by lifting each
//     session to a thread profile and reusing the reduction-tree merge
//     (profile.ReduceThreadProfiles) and, across processes,
//     profile.MergeProcessProfiles;
//   - Live: a cheap online summary (l_d ranking, inferred sizes, per-
//     stream strides with the Equation 4 confidence) computed without
//     touching the per-sample cells.
//
// The online state grows with the distinct keys a session sees: one
// stream per (IP, context, identity) and one accumulation cell per
// (loop, IP, raw element offset), so a dense or irregular profile holds
// nearly as many cells as samples (health at period 12: 87,458 cells for
// 109,254 samples). A session finds its streams through an
// open-addressed table of entry pointers. Each cell is written once into
// a block that never moves and found through a table of hash tags
// (core.IdentityAccum), and a report sums the cells into one bucket per
// (region, field offset), a cell of the same kind of table, before it
// builds its tables. Retained samples, unless DropSamples is set, are
// copied a batch at a time into blocks that never move either.
// LRU eviction bounds the streams (MaxStreams) and the identities
// (MaxIdentities; an evicted identity's cells go with it), but nothing
// bounds the cells of an identity that stays tracked; SessionInfo.Cells
// counts them. Eviction makes the analysis approximate (evicted state
// starts over empty if its key recurs) and is reported via counters.
package stream

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/prog"
)

// Batch is one ingest message, a profile frame. The analyzer's own API
// takes profile.Batch; the alias keeps the name the benchmark module
// (structbench) uses.
type Batch = profile.Batch

// Config tunes the analyzer. The zero value retains samples and never
// evicts.
type Config struct {
	// MaxStreams bounds the live streams per session; 0 = unbounded.
	// Beyond the bound the least-recently-updated stream is evicted.
	MaxStreams int
	// MaxIdentities bounds the tracked identities per session; 0 =
	// unbounded. Beyond the bound the least-recently-touched identity's
	// accumulator is evicted.
	MaxIdentities int
	// DropSamples disables raw-sample retention. Report and Live keep
	// working (they need only the online state); Snapshot becomes
	// unavailable. The online state still grows with the distinct cell
	// keys, up to one cell per sample on irregular access patterns.
	DropSamples bool
	// Shards partitions sessions across independent shard locks by an
	// identity hash of the session id, so concurrent sessions never
	// contend on a shared map lock in the ingest hot path. 0 or 1 keeps a
	// single shard. Shard count never changes results: Snapshot and
	// Report gather sessions from every shard and merge them in the
	// canonical (process, TID, id) order.
	Shards int
	// Analysis tunes report building.
	Analysis core.Options
}

// Analyzer is the concurrent online analyzer. Sessions ingest under their
// own locks and the session directory itself is sharded, so distinct
// sessions contend on nothing in the hot path.
type Analyzer struct {
	conf    Config
	program *prog.Program
	loops   *cfg.ProgramLoops

	// period is the sampling period adopted from the first batch (0 until
	// then); atomic because any shard's first session may set it.
	period atomic.Uint64

	shards []*shard

	// gen is the ingest generation. A new session bumps it once it is in
	// its shard, and an accepted batch once its state is in place, so a
	// reader that sees a generation also sees every change it counts.
	gen atomic.Uint64
	// report is the last report built, tagged with the generation read
	// before its build began; builds counts the builds.
	report atomic.Pointer[builtReport]
	builds atomic.Uint64
}

// builtReport is a report with the ingest generation it covers.
type builtReport struct {
	gen uint64
	rep *core.Report
}

// shard is one partition of the session directory. Sessions hash to a
// shard by session id, so every per-batch lookup takes only its shard's
// read lock — no analyzer-wide lock exists.
type shard struct {
	mu       sync.RWMutex
	sessions map[string]*session
}

// New creates an analyzer for samples of the given program. The program
// may be nil: ingestion, Live, and Snapshot still work, but Report (which
// needs loop recovery and debug info) returns an error.
func New(program *prog.Program, conf Config) (*Analyzer, error) {
	if conf.Shards <= 0 {
		conf.Shards = 1
	}
	a := &Analyzer{conf: conf, shards: make([]*shard, conf.Shards), program: program}
	for i := range a.shards {
		a.shards[i] = &shard{sessions: make(map[string]*session)}
	}
	if program != nil {
		loops, err := cfg.AnalyzeLoops(program)
		if err != nil {
			return nil, err
		}
		a.loops = loops
	}
	return a, nil
}

// shardFor hashes a session id to its shard (FNV-1a).
func (a *Analyzer) shardFor(session string) *shard {
	if len(a.shards) == 1 {
		return a.shards[0]
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(session); i++ {
		h ^= uint64(session[i])
		h *= 1099511628211
	}
	return a.shards[h%uint64(len(a.shards))]
}

// streamEntry is one live stream with its key's hash and its LRU links.
type streamEntry struct {
	key        profile.StreamKey
	hash       uint64
	stat       profile.StreamStat
	prev, next *streamEntry
}

type session struct {
	// id, process, tid, and period are fixed at session creation and read
	// without the lock.
	id      string
	process string
	tid     int32
	period  uint64

	mu sync.Mutex
	// sampleBlocks retains the raw samples (unless Config.DropSamples) in
	// blocks that never move, filled by one copy per batch; each new block
	// doubles from firstSampleBlock up to maxSampleBlock, so a small
	// session stays small and a retained sample is not copied again as
	// the session grows.
	sampleBlocks [][]profile.Sample

	streams streamTable
	lruHead *streamEntry // most recently updated
	lruTail *streamEntry // eviction candidate
	lastKey profile.StreamKey
	lastEnt *streamEntry
	accums  map[uint64]*core.IdentityAccum
	// identTouch and clock rank identities for evictColdestIdentity; they
	// are kept only when Config.MaxIdentities bounds the identities.
	identTouch map[uint64]uint64
	clock      uint64

	objects []profile.ObjInfo
	objByID map[int32]*profile.ObjInfo

	numSamples     uint64
	totalLatency   uint64
	appCycles      uint64
	overheadCycles uint64
	memOps         uint64
	lastCycle      uint64

	evictedStreams    uint64
	evictedIdentities uint64
}

// Ingest folds one batch into the analyzer. Batches of one session must
// arrive in stream order; batches of different sessions may arrive
// concurrently.
func (a *Analyzer) Ingest(b profile.Batch) error {
	if b.Session == "" {
		return fmt.Errorf("stream: batch without session id")
	}
	if b.Period == 0 {
		return fmt.Errorf("stream: batch without sampling period")
	}
	s, err := a.getSession(&b)
	if err != nil {
		return err
	}

	if s.period != b.Period {
		return fmt.Errorf("stream: session %s: period %d differs from %d", s.id, b.Period, s.period)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range b.Objects {
		oi := b.Objects[i]
		if _, ok := s.objByID[oi.ID]; !ok {
			s.objects = append(s.objects, oi)
			cp := oi
			s.objByID[oi.ID] = &cp
		}
	}
	if !a.conf.DropSamples {
		s.retain(b.Samples)
	}
	for i := range b.Samples {
		a.addSample(s, &b.Samples[i])
	}
	if b.AppCycles != 0 {
		s.appCycles = b.AppCycles
	}
	if b.OverheadCycles != 0 {
		s.overheadCycles = b.OverheadCycles
	}
	if b.MemOps != 0 {
		s.memOps = b.MemOps
	}
	a.gen.Add(1)
	return nil
}

func (a *Analyzer) getSession(b *profile.Batch) (*session, error) {
	sh := a.shardFor(b.Session)
	sh.mu.RLock()
	s := sh.sessions[b.Session]
	sh.mu.RUnlock()
	if s != nil {
		return s, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Adopt the analyzer-wide period with a CAS: the first session of any
	// shard may race to set it, and every later session must agree.
	if !a.period.CompareAndSwap(0, b.Period) {
		if p := a.period.Load(); p != b.Period {
			return nil, fmt.Errorf("stream: period %d differs from %d", b.Period, p)
		}
	}
	if s = sh.sessions[b.Session]; s != nil {
		return s, nil
	}
	s = &session{
		id:         b.Session,
		process:    b.Process,
		tid:        b.TID,
		period:     b.Period,
		streams:    newStreamTable(),
		accums:     make(map[uint64]*core.IdentityAccum),
		identTouch: make(map[uint64]uint64),
		objByID:    make(map[int32]*profile.ObjInfo),
	}
	sh.sessions[b.Session] = s
	a.gen.Add(1)
	return s, nil
}

// addSample is the per-sample hot path, called with s.mu held. It mirrors
// profile.ThreadProfile.Add exactly (same stream keying, same Observe
// updates) so a session's stream state is indistinguishable from the
// per-thread profiler's.
func (a *Analyzer) addSample(s *session, sm *profile.Sample) {
	s.numSamples++
	s.totalLatency += uint64(sm.Latency)
	if sm.Cycle > s.lastCycle {
		s.lastCycle = sm.Cycle
	}

	var identity uint64
	var obj *profile.ObjInfo
	if sm.ObjID >= 0 {
		if o := s.objByID[sm.ObjID]; o != nil {
			obj = o
			identity = o.Identity
		}
	}

	key := profile.StreamKey{IP: sm.IP, Ctx: sm.Ctx, Identity: identity}
	ent := s.lastEnt
	if ent == nil || key != s.lastKey {
		h := streamHash(&key)
		var slot uint64
		if ent, slot = s.streams.find(&key, h); ent == nil {
			ent = &streamEntry{key: key, hash: h, stat: profile.StreamStat{IP: sm.IP, Identity: identity}}
			s.streams.put(ent, slot)
			if a.conf.MaxStreams > 0 && s.streams.len() > a.conf.MaxStreams {
				s.evictColdestStream(ent)
			}
		}
		s.lastKey, s.lastEnt = key, ent
	}
	s.lruTouch(ent)
	ent.stat.Observe(sm.EA, sm.Latency, sm.Write, sm.ObjID)

	if obj != nil {
		acc := s.accums[identity]
		if acc == nil {
			acc = core.NewIdentityAccum(identity)
			s.accums[identity] = acc
			if a.conf.MaxIdentities > 0 && len(s.accums) > a.conf.MaxIdentities {
				s.evictColdestIdentity(identity)
			}
		}
		if a.conf.MaxIdentities > 0 {
			s.clock++
			s.identTouch[identity] = s.clock
		}
		acc.AddSample(sm, obj, a.loops)
	}
}

const (
	firstSampleBlock = 512
	maxSampleBlock   = 8192
)

// retain appends a batch's samples to the session's sample blocks,
// copying into the last block's spare capacity and opening new blocks as
// needed; caller holds s.mu.
func (s *session) retain(samples []profile.Sample) {
	for len(samples) > 0 {
		n := len(s.sampleBlocks)
		if n == 0 || len(s.sampleBlocks[n-1]) == cap(s.sampleBlocks[n-1]) {
			size := firstSampleBlock
			if n > 0 {
				size = min(2*cap(s.sampleBlocks[n-1]), maxSampleBlock)
			}
			s.sampleBlocks = append(s.sampleBlocks, make([]profile.Sample, 0, size))
			n++
		}
		blk := &s.sampleBlocks[n-1]
		k := min(cap(*blk)-len(*blk), len(samples))
		*blk = append(*blk, samples[:k]...)
		samples = samples[k:]
	}
}

// lruTouch moves ent to the head of the session's LRU list.
func (s *session) lruTouch(ent *streamEntry) {
	if s.lruHead == ent {
		return
	}
	// Unlink.
	if ent.prev != nil {
		ent.prev.next = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	}
	if s.lruTail == ent {
		s.lruTail = ent.prev
	}
	// Push front.
	ent.prev = nil
	ent.next = s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = ent
	}
	s.lruHead = ent
	if s.lruTail == nil {
		s.lruTail = ent
	}
}

// evictColdestStream drops the least-recently-updated stream (never the
// one just created).
func (s *session) evictColdestStream(keep *streamEntry) {
	victim := s.lruTail
	if victim == nil || victim == keep {
		return
	}
	if victim.prev != nil {
		victim.prev.next = nil
	}
	s.lruTail = victim.prev
	if s.lruHead == victim {
		s.lruHead = nil
	}
	s.streams.remove(victim)
	if s.lastEnt == victim {
		s.lastEnt = nil
	}
	s.evictedStreams++
}

// evictColdestIdentity drops the least-recently-touched identity
// accumulator (never the one just created).
func (s *session) evictColdestIdentity(keep uint64) {
	var victim uint64
	var minTouch uint64
	found := false
	for id, touch := range s.identTouch {
		if id == keep {
			continue
		}
		if !found || touch < minTouch {
			victim, minTouch, found = id, touch, true
		}
	}
	if !found {
		return
	}
	delete(s.accums, victim)
	delete(s.identTouch, victim)
	s.evictedIdentities++
}

// sortedSessions returns the sessions of every shard ordered by
// (process, TID, id) — the canonical merge order, matching the batch
// profiler's ascending-thread reduction. Gathering then sorting is what
// makes Snapshot and Report independent of the shard count: the merge
// never sees which shard a session lived on.
func (a *Analyzer) sortedSessions() []*session {
	var out []*session
	for _, sh := range a.shards {
		sh.mu.RLock()
		for _, s := range sh.sessions {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].process != out[j].process {
			return out[i].process < out[j].process
		}
		if out[i].tid != out[j].tid {
			return out[i].tid < out[j].tid
		}
		return out[i].id < out[j].id
	})
	return out
}

// mergeStreams folds the session's stream statistics into dst with the
// reduction tree's semantics (profile.StreamStat.MergeFrom); caller holds
// s.mu.
func (s *session) mergeStreams(dst map[profile.StreamKey]*profile.StreamStat) {
	s.streams.each(func(e *streamEntry) {
		if d := dst[e.key]; d != nil {
			d.MergeFrom(&e.stat)
		} else {
			cp := e.stat
			dst[e.key] = &cp
		}
	})
}

// threadProfile materializes the session as a per-thread profile; caller
// holds s.mu.
func (s *session) threadProfile() *profile.ThreadProfile {
	tp := profile.NewThreadProfile(int(s.tid), s.period)
	if len(s.sampleBlocks) > 0 {
		tp.Samples = make([]profile.Sample, 0, s.numSamples)
		for _, blk := range s.sampleBlocks {
			tp.Samples = append(tp.Samples, blk...)
		}
	}
	s.streams.each(func(e *streamEntry) {
		cp := e.stat
		tp.Streams[e.key] = &cp
	})
	tp.Objects = append([]profile.ObjInfo(nil), s.objects...)
	tp.NumSamples = s.numSamples
	tp.TotalLatency = s.totalLatency
	tp.AppCycles = s.appCycles
	tp.OverheadCycles = s.overheadCycles
	tp.MemOps = s.memOps
	return tp
}

// SessionProfile is one session lifted to a thread profile.
type SessionProfile struct {
	ID, Process string
	Profile     *profile.ThreadProfile
}

// SessionProfiles lifts every session to a thread profile from its
// retained samples and online state, in the canonical (process, TID, id)
// order.
func (a *Analyzer) SessionProfiles() ([]SessionProfile, error) {
	if a.conf.DropSamples {
		return nil, fmt.Errorf("stream: snapshot unavailable: sample retention is disabled")
	}
	sessions := a.sortedSessions()
	if len(sessions) == 0 {
		return nil, fmt.Errorf("stream: no sessions")
	}
	out := make([]SessionProfile, len(sessions))
	for i, s := range sessions {
		s.mu.Lock()
		out[i] = SessionProfile{ID: s.id, Process: s.process, Profile: s.threadProfile()}
		s.mu.Unlock()
	}
	return out, nil
}

// Snapshot materializes the merged whole-program profile from the
// retained per-session state: each session lifts to a thread profile,
// the thread profiles of one process fold through the reduction tree
// (profile.ReduceThreadProfiles), and processes combine by data-centric
// identity (profile.MergeProcessProfiles). The result is deep-equal to
// the batch profiler's merged profile given the same complete event
// stream.
func (a *Analyzer) Snapshot() (*profile.Profile, error) {
	sps, err := a.SessionProfiles()
	if err != nil {
		return nil, err
	}
	var procNames []string
	byProc := make(map[string][]*profile.ThreadProfile)
	for _, sp := range sps {
		if _, ok := byProc[sp.Process]; !ok {
			procNames = append(procNames, sp.Process)
		}
		byProc[sp.Process] = append(byProc[sp.Process], sp.Profile)
	}
	perProc := make([]*profile.Profile, 0, len(procNames))
	for _, proc := range procNames {
		p, err := profile.ReduceThreadProfiles(byProc[proc], 0)
		if err != nil {
			return nil, err
		}
		perProc = append(perProc, p)
	}
	if len(perProc) == 1 {
		return perProc[0], nil
	}
	return profile.MergeProcessProfiles(perProc)
}

// Report returns the full analysis from the online state alone — no raw
// samples needed. A report is built once per ingest generation and
// shared: while no batch has landed and no session has appeared since
// the last build, Report returns that same report without taking a
// session lock, so callers must not modify it.
//
// A build locks every session for its whole length and folds the
// sessions' own accumulators in place (core.BuildReport takes one part
// per session), so no accumulation cell is copied; per-session stream
// statistics merge with the reduction tree's semantics
// (profile.StreamStat.MergeFrom in ascending session order). The result
// is byte-identical to core.Analyze over the batch profile of the same
// complete event stream.
//
// With sessions from more than one process the online path cannot merge
// object tables (IDs collide), so Report falls back to analyzing a
// materialized snapshot, which requires sample retention.
func (a *Analyzer) Report() (*core.Report, error) {
	if a.program == nil {
		return nil, fmt.Errorf("stream: report needs the analyzed program")
	}
	// Read the generation before gathering the sessions: the build then
	// covers at least every change the generation counts, and any later
	// change bumps it past the tag, so a hit is never stale.
	gen := a.gen.Load()
	if c := a.report.Load(); c != nil && c.gen == gen {
		return c.rep, nil
	}
	rep, err := a.buildReport()
	if err != nil {
		return nil, err
	}
	a.builds.Add(1)
	a.report.Store(&builtReport{gen: gen, rep: rep})
	return rep, nil
}

// ReportBuilds returns how many reports Report has built; a call that
// returns the cached report does not count.
func (a *Analyzer) ReportBuilds() uint64 { return a.builds.Load() }

// buildReport builds a report from the current online state.
func (a *Analyzer) buildReport() (*core.Report, error) {
	sessions := a.sortedSessions()
	if len(sessions) == 0 {
		return nil, fmt.Errorf("stream: no sessions")
	}
	multiProc := false
	for _, s := range sessions[1:] {
		if s.process != sessions[0].process {
			multiProc = true
			break
		}
	}
	if multiProc {
		p, err := a.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("stream: multi-process report: %w", err)
		}
		return core.Analyze(p, a.program, a.conf.Analysis)
	}

	// Hold every session lock until the build ends, taken in canonical
	// order. The report is then one consistent cut across sessions, and
	// ingest waits for the build. This cannot deadlock: no other path
	// holds two session locks, and concurrent Reports take them in the
	// same (process, TID, id) order, which is total because ids are
	// unique.
	for _, s := range sessions {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range sessions {
			s.mu.Unlock()
		}
	}()

	parts := make([]map[uint64]*core.IdentityAccum, 0, len(sessions))
	streams := make(map[profile.StreamKey]*profile.StreamStat)
	objByID := make(map[int32]*profile.ObjInfo)
	var totalLatency, numSamples, appCycles, overheadCycles uint64
	for _, s := range sessions {
		parts = append(parts, s.accums)
		s.mergeStreams(streams)
		for id, oi := range s.objByID {
			if _, ok := objByID[id]; !ok {
				cp := *oi
				objByID[id] = &cp
			}
		}
		totalLatency += s.totalLatency
		numSamples += s.numSamples
		if s.appCycles > appCycles {
			appCycles = s.appCycles
		}
		if s.overheadCycles > overheadCycles {
			overheadCycles = s.overheadCycles
		}
	}
	overheadPct := 0.0
	if appCycles > 0 {
		overheadPct = 100 * float64(overheadCycles) / float64(appCycles)
	}
	meta := core.ReportMeta{
		Program:      a.program.Name,
		TotalLatency: totalLatency,
		NumSamples:   numSamples,
		Threads:      len(sessions),
		OverheadPct:  overheadPct,
	}
	objOf := func(id int32) *profile.ObjInfo { return objByID[id] }
	return core.BuildReport(meta, parts, streams, objOf, a.program, a.loops, a.conf.Analysis)
}

// Program returns the program the analyzer reports against (may be nil).
func (a *Analyzer) Program() *prog.Program { return a.program }

// AnalysisOptions returns the configured report options.
func (a *Analyzer) AnalysisOptions() core.Options { return a.conf.Analysis }

// Period returns the sampling period adopted from the first batch (0
// before any ingest).
func (a *Analyzer) Period() uint64 { return a.period.Load() }

// Shards returns the configured shard count.
func (a *Analyzer) Shards() int { return len(a.shards) }

// SessionInfo is one session's ingest bookkeeping, for metrics.
type SessionInfo struct {
	ID      string
	Process string
	TID     int32

	NumSamples uint64
	LastCycle  uint64

	Streams    int
	Identities int
	// Cells counts the session's accumulation cells, one per distinct
	// (identity, loop, IP, raw element offset) it has seen: the online
	// state that grows with the profile.
	Cells             int
	EvictedStreams    uint64
	EvictedIdentities uint64
}

// Sessions reports per-session bookkeeping, sorted in canonical order.
func (a *Analyzer) Sessions() []SessionInfo {
	sessions := a.sortedSessions()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		s.mu.Lock()
		cells := 0
		for _, acc := range s.accums {
			cells += acc.NumCells()
		}
		out = append(out, SessionInfo{
			ID:                s.id,
			Process:           s.process,
			TID:               s.tid,
			NumSamples:        s.numSamples,
			LastCycle:         s.lastCycle,
			Streams:           s.streams.len(),
			Identities:        len(s.accums),
			Cells:             cells,
			EvictedStreams:    s.evictedStreams,
			EvictedIdentities: s.evictedIdentities,
		})
		s.mu.Unlock()
	}
	return out
}
