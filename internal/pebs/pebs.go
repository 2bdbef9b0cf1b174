// Package pebs models PEBS-LL-style hardware address sampling.
//
// Real address-sampling facilities (Table 1 of the paper: Intel PEBS-LL,
// Itanium DEAR, AMD IBS, IBM MRK) arm a counter to fire after N events of
// a chosen class; when it fires, the hardware captures the instruction
// pointer, the effective address, and — for PEBS-LL and IBS — the load
// latency and data source of the sampled access, then raises an interrupt
// whose handler records the sample. The handler cost, not the counting,
// is where the profiler's ~7% overhead comes from.
//
// This package reproduces that contract against the simulated machine: it
// observes every memory access (as the PMU does), selects every Nth one
// (with optional period randomization, which hardware effectively provides
// and which avoids aliasing with loop bodies), captures the same fields,
// performs StructSlim's *online* work — data-centric attribution via the
// allocation map and the running per-stream GCD — and charges the thread
// an interrupt-plus-handler cost in cycles, so measurement overhead is an
// output of the model rather than an assumption.
package pebs

import (
	"repro/internal/mem"
	"repro/internal/profile"
	"repro/internal/vm"
)

// Facility describes one hardware address-sampling mechanism — the
// paper's Table 1. StructSlim requires latency capture, which only
// PEBS-LL and IBS provide; this reproduction models both semantics.
type Facility struct {
	Processor string
	Technique string
	// Latency reports whether the facility captures the sampled access's
	// load latency (StructSlim's requirement).
	Latency bool
	// Modeled reports whether this reproduction implements the
	// facility's sampling semantics, and as which Mode.
	Modeled bool
	Mode    Mode
}

// Facilities reproduces Table 1.
var Facilities = []Facility{
	{Processor: "Intel Nehalem", Technique: "Precise event-based sampling with load latency (PEBS-LL)", Latency: true, Modeled: true, Mode: ModePEBSLL},
	{Processor: "Intel Itanium", Technique: "Data event address register (DEAR)"},
	{Processor: "Intel Pentium4", Technique: "Precise event-based sampling (PEBS)"},
	{Processor: "AMD Opteron", Technique: "Instruction-based sampling (IBS)", Latency: true, Modeled: true, Mode: ModeIBS},
	{Processor: "IBM POWER5", Technique: "Marked event sampling (MRK)"},
}

// Mode selects the sampling semantics of the modeled PMU.
type Mode uint8

// Sampling modes, matching the paper's Table 1 facilities.
const (
	// ModePEBSLL periods off *memory accesses* — Intel PEBS with load
	// latency arms a counter of memory-instruction retirements, so
	// compute-heavy phases do not dilute the address-sample rate.
	ModePEBSLL Mode = iota
	// ModeIBS periods off *retired instructions* — AMD IBS tags every
	// Nth op; only tagged ops that are loads/stores yield an address
	// sample, so the effective address-sample rate scales with the
	// program's memory-operation density.
	ModeIBS
)

func (m Mode) String() string {
	if m == ModeIBS {
		return "ibs"
	}
	return "pebs-ll"
}

// Config tunes the sampler.
type Config struct {
	// Mode selects PEBS-LL (per-memory-access periods) or IBS
	// (per-instruction periods).
	Mode Mode
	// Period is the number of events (memory accesses for PEBS-LL,
	// instructions for IBS) between samples; the paper samples every
	// 10,000 memory accesses.
	Period uint64
	// Randomize jitters each inter-sample gap within ±1/8 of the period,
	// preventing lockstep aliasing between the period and loop bodies.
	Randomize bool
	// Seed makes randomized runs reproducible. Each thread derives its
	// own generator from it.
	Seed uint64

	// InterruptCost is the cycles charged per sample for the PMI,
	// register capture, and StructSlim's handler (attribution + online
	// GCD update).
	InterruptCost uint64
	// SharedAttribCost is the extra handler cost per sample, per
	// *additional* running thread: the handler consults the process-wide
	// allocation map, whose synchronization gets slower as more threads
	// use the allocator and profiler concurrently. This is what makes
	// the paper's multithreaded benchmarks (CLOMP 16.1%, Health 18.3%)
	// measurably more expensive to profile than sequential ones.
	SharedAttribCost uint64
	// MinLatency drops samples whose load latency is below the
	// threshold, mirroring the PEBS-LL latency-threshold control (0
	// keeps everything).
	MinLatency uint32
}

// DefaultConfig matches the paper's setup: one sample per 10,000 memory
// accesses.
func DefaultConfig() Config {
	return Config{
		Period:           10_000,
		Randomize:        true,
		Seed:             1,
		InterruptCost:    3500,
		SharedAttribCost: 5500,
		MinLatency:       0,
	}
}

// Sampler implements vm.GapSampler for every thread of a run.
type Sampler struct {
	cfg      Config
	space    *mem.Space
	nThreads int
	threads  []threadState
}

var _ vm.GapSampler = (*Sampler)(nil)

// threadState is one thread slot's sampler state, carried across the
// machine's phases. SampleAccess owns countdown, nextAt and rng;
// ChargeSample owns prof.
type threadState struct {
	countdown uint64 // PEBS-LL: accesses until the next sample
	nextAt    uint64 // IBS: slot instruction count (MemEvent.Instrs) of the next tagged op
	rng       uint64
	prof      *profile.ThreadProfile
}

// NewSampler attaches to a machine's address space for numThreads
// threads.
func NewSampler(cfg Config, space *mem.Space, numThreads int) *Sampler {
	if cfg.Period == 0 {
		cfg.Period = DefaultConfig().Period
	}
	s := &Sampler{cfg: cfg, space: space, nThreads: numThreads}
	s.threads = make([]threadState, numThreads)
	for i := range s.threads {
		ts := &s.threads[i]
		ts.rng = splitmix64(cfg.Seed + uint64(i)*0x9E3779B97F4A7C15 + 1)
		ts.prof = profile.NewThreadProfile(i, cfg.Period)
		gap := s.nextGap(ts)
		ts.countdown = gap
		ts.nextAt = gap
	}
	return s
}

// nextGap draws the accesses-until-next-sample for one thread.
func (s *Sampler) nextGap(ts *threadState) uint64 {
	if !s.cfg.Randomize {
		return s.cfg.Period
	}
	// Jitter within ±period/8.
	span := s.cfg.Period / 4
	if span == 0 {
		return s.cfg.Period
	}
	ts.rng = xorshift64(ts.rng)
	return s.cfg.Period - span/2 + ts.rng%span
}

// OnAccess implements vm.AccessObserver. It counts every access and, when
// the period expires, records a sample and returns the handler cost: the
// composition of SampleAccess and ChargeSample.
func (s *Sampler) OnAccess(ev *vm.MemEvent) uint64 {
	obj, ok := s.SampleAccess(ev)
	if !ok {
		return 0
	}
	return s.ChargeSample(ev, obj)
}

// SampleAccess implements vm.GapSampler: OnAccess's functional half. It
// counts the access toward the thread's period and, when the access is a
// sample, attributes it to the data object it hit (data-centric
// attribution reads the allocation map, so it cannot wait for timing).
// It reads no timing field of ev.
func (s *Sampler) SampleAccess(ev *vm.MemEvent) (*mem.Object, bool) {
	ts := &s.threads[ev.TID]
	if s.cfg.Mode == ModeIBS {
		// IBS tags instruction number nextAt. Tags that land on
		// non-memory instructions carry no linear address and are
		// dropped, so the effective address-sample rate scales with
		// the program's memory-op density — the semantic difference
		// from PEBS-LL.
		if ev.Instrs < ts.nextAt {
			return nil, false
		}
		var tagged uint64
		for ts.nextAt <= ev.Instrs {
			tagged = ts.nextAt
			ts.nextAt += s.nextGap(ts)
		}
		if tagged != ev.Instrs {
			return nil, false // the tagged op was not this memory access
		}
	} else {
		ts.countdown--
		if ts.countdown > 0 {
			return nil, false
		}
		ts.countdown = s.nextGap(ts)
	}
	return s.space.FindObject(ev.EA), true
}

// ChargeSample implements vm.GapSampler: OnAccess's timing half for a
// selected access. It applies the latency filter, records the sample
// with its latency, serving level and timestamp, and returns the
// interrupt-plus-handler cost.
func (s *Sampler) ChargeSample(ev *vm.MemEvent, obj *mem.Object) uint64 {
	if ev.Latency < s.cfg.MinLatency {
		// The PEBS latency filter discards the record in hardware: no
		// interrupt is raised, so no cost is charged.
		return 0
	}

	// --- Interrupt handler work (charged below) ---
	// Data-centric attribution: effective address → data object.
	objID := int32(-1)
	var identity uint64
	if obj != nil {
		objID = int32(obj.ID)
		identity = obj.Identity
	}
	s.threads[ev.TID].prof.Add(profile.Sample{
		TID:     int32(ev.TID),
		IP:      ev.IP,
		EA:      ev.EA,
		Latency: ev.Latency,
		Level:   ev.Level,
		Write:   ev.Write,
		Cycle:   ev.Cycle,
		ObjID:   objID,
		Ctx:     ev.Ctx,
	}, identity)

	cost := s.cfg.InterruptCost
	if s.nThreads > 1 {
		cost += s.cfg.SharedAttribCost * uint64(s.nThreads-1)
	}
	return cost
}

// AccessGap implements vm.GapSampler: it tells the machine how many
// upcoming events this thread's sampler will certainly ignore, so the
// interpreter can run them without materializing MemEvents. PEBS-LL
// counts memory accesses: with countdown accesses until the next sample,
// the next countdown-1 are free (the machine reports them in bulk via
// SkipAccesses). IBS tags an absolute instruction number: every access
// retiring before instruction nextAt is free, and — because sub-
// threshold events change no sampler state at all — needs no report.
func (s *Sampler) AccessGap(tid int) (gap uint64, byInstrs bool) {
	ts := &s.threads[tid]
	if s.cfg.Mode == ModeIBS {
		return ts.nextAt, true
	}
	return ts.countdown - 1, false
}

// SkipAccesses implements vm.GapSampler: the machine ran n accesses of
// the thread through the no-copy-out path; account for them exactly as
// if OnAccess had counted each one down.
func (s *Sampler) SkipAccesses(tid int, n uint64) {
	s.threads[tid].countdown -= n
}

// Finish snapshots the object table into each thread profile and attaches
// the run's cycle accounts; call it once after the machine run completes.
func (s *Sampler) Finish(st vm.Stats) []*profile.ThreadProfile {
	objs := make([]profile.ObjInfo, 0, s.space.NumObjects())
	for _, o := range s.space.Objects() {
		objs = append(objs, profile.ObjInfo{
			ID:       int32(o.ID),
			Heap:     o.Kind == mem.HeapObj,
			Name:     o.Name,
			Base:     o.Base,
			Size:     o.Size,
			Identity: o.Identity,
			AllocIP:  o.AllocIP,
			TypeID:   int32(o.TypeID),
		})
	}
	out := make([]*profile.ThreadProfile, 0, len(s.threads))
	for i := range s.threads {
		tp := s.threads[i].prof
		tp.Objects = objs
		if i < len(st.PerThread) {
			tp.AppCycles = st.PerThread[i].Cycles
			tp.OverheadCycles = st.PerThread[i].OverheadCycles
			tp.MemOps = st.PerThread[i].MemOps
		}
		out = append(out, tp)
	}
	return out
}

// Profiles returns the in-progress thread profiles (for tests).
func (s *Sampler) Profiles() []*profile.ThreadProfile {
	out := make([]*profile.ThreadProfile, 0, len(s.threads))
	for i := range s.threads {
		out = append(out, s.threads[i].prof)
	}
	return out
}

// splitmix64 seeds the per-thread xorshift state well even from small
// seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
