// Package profile defines the data the online profiler collects and the
// offline analyzer consumes: address samples, per-stream online statistics
// (including the running GCD of address deltas), per-thread profiles, gob
// serialization, and the parallel reduction-tree merge the paper uses to
// combine per-thread profiles.
package profile

import (
	"fmt"
	"sort"

	"repro/internal/stride"
)

// Sample is one address sample: exactly the fields PEBS-LL delivers (IP,
// effective address, latency, data source) plus thread and timestamp, and
// the object resolved by the online data-centric attribution (-1 when the
// address hit no known object, e.g. stack data, which StructSlim does not
// monitor).
type Sample struct {
	TID     int32
	IP      uint64
	EA      uint64
	Latency uint32
	Level   uint8
	Write   bool
	Cycle   uint64
	ObjID   int32
	// Ctx hashes the calling context of the sampled instruction;
	// streams are context-sensitive because the paper's one-field-per-
	// instruction assumption holds per calling context.
	Ctx uint64
}

// ObjInfo is the profiler's snapshot of one data object, taken from the
// simulated allocator/symbol table when the profile is written out.
type ObjInfo struct {
	ID       int32
	Heap     bool
	Name     string
	Base     uint64
	Size     uint64
	Identity uint64
	AllocIP  uint64
	TypeID   int32
}

// StreamKey identifies a stream the way the paper defines it: one memory
// instruction (IP) in one calling context (Ctx) referencing one logical
// data structure (Identity). The loop context is recovered offline from
// the IP via loop analysis.
type StreamKey struct {
	IP       uint64
	Ctx      uint64
	Identity uint64
}

// StreamStat is the online state of one stream. The profiler updates GCD
// incrementally with each new sample's |EA − lastEA| (Equations 2–3 of the
// paper), so no per-sample address list is needed online.
type StreamStat struct {
	IP       uint64
	Identity uint64

	Count      uint64 // samples observed
	Writes     uint64
	LatencySum uint64

	// GCD is the running greatest common divisor of absolute address
	// deltas between successive samples; 0 until two distinct addresses
	// have been seen.
	GCD    uint64
	LastEA uint64
	// FirstEA and FirstObjID anchor the offset computation (Equation 6):
	// offset = (EA − object base) mod size.
	FirstEA    uint64
	FirstObjID int32
}

// Observe folds one sample into the stream state.
func (s *StreamStat) Observe(ea uint64, latency uint32, write bool, objID int32) {
	if s.Count == 0 {
		s.FirstEA = ea
		s.FirstObjID = objID
	} else if ea != s.LastEA {
		var d uint64
		if ea > s.LastEA {
			d = ea - s.LastEA
		} else {
			d = s.LastEA - ea
		}
		s.GCD = stride.GCD(s.GCD, d)
	}
	s.LastEA = ea
	s.Count++
	s.LatencySum += uint64(latency)
	if write {
		s.Writes++
	}
}

// ThreadProfile is what one thread's profiler writes at program end. Per
// the paper's scalable design, threads fill these without any
// synchronization.
type ThreadProfile struct {
	TID    int
	Period uint64

	Samples []Sample
	Streams map[StreamKey]*StreamStat

	// Objects snapshots the data-object table; on a real system this is
	// the per-process allocation map plus symbol table, identical across
	// threads of a process.
	Objects []ObjInfo

	TotalLatency uint64
	NumSamples   uint64

	AppCycles      uint64
	OverheadCycles uint64
	MemOps         uint64

	// lastKey/lastStat cache the most recently updated stream: samples of
	// a hot loop land on the same stream repeatedly, so the common case
	// skips the StreamKey map lookup. Unexported, so gob round-trips are
	// unaffected.
	lastKey  StreamKey
	lastStat *StreamStat
}

// NewThreadProfile returns an empty profile for one thread.
func NewThreadProfile(tid int, period uint64) *ThreadProfile {
	return &ThreadProfile{
		TID:     tid,
		Period:  period,
		Streams: make(map[StreamKey]*StreamStat),
	}
}

// Add records a sample and updates its stream.
func (tp *ThreadProfile) Add(s Sample, identity uint64) {
	tp.Samples = append(tp.Samples, s)
	tp.NumSamples++
	tp.TotalLatency += uint64(s.Latency)
	key := StreamKey{IP: s.IP, Ctx: s.Ctx, Identity: identity}
	st := tp.lastStat
	if st == nil || key != tp.lastKey {
		st = tp.Streams[key]
		if st == nil {
			st = &StreamStat{IP: s.IP, Identity: identity}
			tp.Streams[key] = st
		}
		tp.lastKey, tp.lastStat = key, st
	}
	st.Observe(s.EA, s.Latency, s.Write, s.ObjID)
}

// Profile is a merged, whole-program profile.
type Profile struct {
	Period  uint64
	Threads int

	Samples []Sample
	Streams map[StreamKey]*StreamStat
	Objects []ObjInfo

	TotalLatency uint64
	NumSamples   uint64

	AppCycles      uint64 // max across threads
	OverheadCycles uint64 // max across threads
	MemOps         uint64 // summed
}

// MergeThreadProfiles combines per-thread profiles into one program
// profile sequentially. Stream stats with the same (IP, identity) merge by
// summing counts and latencies and taking the GCD of their strides —
// the paper's Equation 5 adaptation for parallel programs.
func MergeThreadProfiles(tps []*ThreadProfile) (*Profile, error) {
	if len(tps) == 0 {
		return nil, fmt.Errorf("no profiles to merge")
	}
	p := &Profile{
		Period:  tps[0].Period,
		Streams: make(map[StreamKey]*StreamStat),
	}
	seenObj := make(map[int32]bool)
	for _, tp := range tps {
		if tp.Period != p.Period {
			return nil, fmt.Errorf("profiles with different periods: %d vs %d", tp.Period, p.Period)
		}
		p.Threads++
		p.Samples = append(p.Samples, tp.Samples...)
		p.NumSamples += tp.NumSamples
		p.TotalLatency += tp.TotalLatency
		p.MemOps += tp.MemOps
		if tp.AppCycles > p.AppCycles {
			p.AppCycles = tp.AppCycles
		}
		if tp.OverheadCycles > p.OverheadCycles {
			p.OverheadCycles = tp.OverheadCycles
		}
		for key, st := range tp.Streams {
			dst := p.Streams[key]
			if dst == nil {
				cp := *st
				p.Streams[key] = &cp
				continue
			}
			mergeStream(dst, st)
		}
		for _, oi := range tp.Objects {
			if !seenObj[oi.ID] {
				seenObj[oi.ID] = true
				p.Objects = append(p.Objects, oi)
			}
		}
	}
	sort.Slice(p.Samples, func(i, j int) bool {
		if p.Samples[i].Cycle != p.Samples[j].Cycle {
			return p.Samples[i].Cycle < p.Samples[j].Cycle
		}
		return p.Samples[i].TID < p.Samples[j].TID
	})
	sort.Slice(p.Objects, func(i, j int) bool { return p.Objects[i].ID < p.Objects[j].ID })
	return p, nil
}

func mergeStream(dst, src *StreamStat) {
	dst.Count += src.Count
	dst.Writes += src.Writes
	dst.LatencySum += src.LatencySum
	// Strides from different threads combine by GCD (gcd(0,x)=x covers
	// streams that saw fewer than two distinct addresses in one thread).
	// dst keeps its own FirstEA anchor; any sample of the stream works
	// for the offset computation.
	dst.GCD = stride.GCD(dst.GCD, src.GCD)
}

// MergeFrom folds src into s with the cross-thread merge semantics of
// MergeThreadProfiles: counts, writes, and latencies sum; strides combine
// by GCD; s keeps its own FirstEA/FirstObjID anchor and LastEA. Exported
// so the streaming analyzer can merge per-session stream state exactly
// the way the reduction tree does.
func (s *StreamStat) MergeFrom(src *StreamStat) { mergeStream(s, src) }

// ObjByID returns the object snapshot with the given id, or nil.
func (p *Profile) ObjByID(id int32) *ObjInfo {
	i := sort.Search(len(p.Objects), func(i int) bool { return p.Objects[i].ID >= id })
	if i < len(p.Objects) && p.Objects[i].ID == id {
		return &p.Objects[i]
	}
	return nil
}

// OverheadPct is the measurement overhead the profile itself records.
func (p *Profile) OverheadPct() float64 {
	if p.AppCycles == 0 {
		return 0
	}
	return 100 * float64(p.OverheadCycles) / float64(p.AppCycles)
}
