package core

import (
	"sort"

	"repro/internal/affinity"
	"repro/internal/cfg"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/stride"
)

// This file is the analyzer's incremental accumulation layer. The paper's
// pipeline looks two-pass — Equation 5 fixes the structure size from
// stream strides, then Equation 6 folds every sample's address into a
// field offset mod that size — which would force any online consumer to
// retain raw samples until the size settles. The accumulator sidesteps
// that: per-sample state is keyed by the *raw* element offset (EA − object
// base), which needs no size, and the mod-size fold happens once at
// report time. Folding aggregated cells is arithmetically identical to
// folding samples one by one, so the batch Analyze and the streaming
// analyzer (internal/stream) share this code and produce byte-identical
// reports from the same event stream.

// CellKey addresses one accumulation cell of an identity: the sampled
// instruction, its innermost loop, and the raw element offset.
type CellKey struct {
	// LoopKey is the innermost loop containing the instruction (0 =
	// outside all loops) — the aggregation key of the loop table
	// (Table 6) and of in-loop affinity regions (Equation 7).
	LoopKey uint64
	// IP is the sampled instruction; out-of-loop samples get a
	// per-instruction pseudo-region keyed by it.
	IP uint64
	// RawOff is EA − object base: the element offset before Equation 6's
	// mod-size fold.
	RawOff uint64
}

// CellStat is the per-cell tally.
type CellStat struct {
	Latency uint64
	Samples uint64
	Writes  uint64
}

// IdentityAccum is the order-insensitive per-sample state of one logical
// data structure. Every field is a sum or a set union, so per-thread (or
// per-session) accumulators of one identity describe the program-wide
// view together in any order: BuildReport folds them as parts, without
// merging or copying them.
type IdentityAccum struct {
	Identity uint64
	Latency  uint64
	Samples  uint64
	// Objects is the set of concrete data objects aggregated under this
	// identity (per-process object IDs).
	Objects map[int32]bool
	// AnyObj carries identity-level display metadata (name, allocation
	// IP, debug type). The lowest-ID object is kept so the choice is
	// deterministic regardless of sample or part order.
	AnyObj profile.ObjInfo
	HasObj bool
	// Levels histograms the samples by serving data source: Levels[l]
	// counts the samples whose Level is l. It grows to the highest level
	// seen, so a pushed sample may carry any uint8 level.
	Levels []uint64

	// lastObj is the previous sample's object, already in Objects.
	lastObj int32

	// cells holds one tally per (loop, IP, raw element offset).
	cells cellTable
}

// NewIdentityAccum returns an empty accumulator for one identity.
func NewIdentityAccum(identity uint64) *IdentityAccum {
	return &IdentityAccum{
		Identity: identity,
		Objects:  make(map[int32]bool),
		cells:    newCellTable(),
	}
}

// AddSample folds one attributed sample (obj must be the sample's resolved
// object) into the accumulator. loops may be nil (streaming without the
// binary): all samples then land in the outside-loops pseudo-region,
// which is fine for the ranking and stride views that work without it.
func (a *IdentityAccum) AddSample(s *profile.Sample, obj *profile.ObjInfo, loops *cfg.ProgramLoops) {
	a.Latency += uint64(s.Latency)
	a.Samples++
	if s.ObjID != a.lastObj || a.Samples == 1 {
		a.Objects[s.ObjID] = true
		a.lastObj = s.ObjID
	}
	if !a.HasObj || obj.ID < a.AnyObj.ID {
		a.AnyObj = *obj
		a.HasObj = true
	}
	var loopKey uint64
	if loops != nil {
		loopKey = loops.LoopKeyOfIP(s.IP)
	}
	cs := a.cells.get(CellKey{LoopKey: loopKey, IP: s.IP, RawOff: s.EA - obj.Base})
	cs.Latency += uint64(s.Latency)
	cs.Samples++
	if s.Write {
		cs.Writes++
	}
	if int(s.Level) >= len(a.Levels) {
		a.Levels = append(a.Levels, make([]uint64, int(s.Level)+1-len(a.Levels))...)
	}
	a.Levels[s.Level]++
}

// NumCells returns the number of distinct cells accumulated so far.
func (a *IdentityAccum) NumCells() int { return a.cells.len() }

// AccumulateProfile builds per-identity accumulators from a merged
// profile in one pass over its samples.
func AccumulateProfile(p *profile.Profile, loops *cfg.ProgramLoops) map[uint64]*IdentityAccum {
	objByID := make(map[int32]*profile.ObjInfo, len(p.Objects))
	for i := range p.Objects {
		objByID[p.Objects[i].ID] = &p.Objects[i]
	}
	accums := make(map[uint64]*IdentityAccum)
	for i := range p.Samples {
		s := &p.Samples[i]
		if s.ObjID < 0 {
			continue
		}
		obj := objByID[s.ObjID]
		if obj == nil {
			continue
		}
		acc := accums[obj.Identity]
		if acc == nil {
			acc = NewIdentityAccum(obj.Identity)
			accums[obj.Identity] = acc
		}
		acc.AddSample(s, obj, loops)
	}
	return accums
}

// IdentityDisplayName renders a structure identity's human name the way
// the report does: the symbol name for statics, the allocation site for
// heap identities. Exported for the streaming analyzer's live view.
func IdentityDisplayName(obj *profile.ObjInfo, program *prog.Program) string {
	if program == nil {
		if obj == nil {
			return "?"
		}
		return obj.Name
	}
	return displayName(obj, program)
}

// ReportMeta is the whole-run header of a report.
type ReportMeta struct {
	Program      string
	TotalLatency uint64
	NumSamples   uint64
	Threads      int
	OverheadPct  float64
}

// BuildReport assembles the full analysis from accumulated state. parts
// holds one accumulator map per source of samples — the batch Analyze
// passes one, the streaming analyzer one per session — and a structure is
// the sum of its accumulators across the parts: the hot-data ranking
// (Equation 1) sums their totals, and finalizeStruct folds every part's
// cells where they are. Every fold is an integer sum, so the report does
// not depend on how the samples were split into parts. objOf resolves
// object IDs for stream-offset diagnostics (profile.Profile.ObjByID for
// the batch path). Both the batch Analyze and the streaming analyzer end
// here, which is what makes their outputs byte-identical.
func BuildReport(
	meta ReportMeta,
	parts []map[uint64]*IdentityAccum,
	streams map[profile.StreamKey]*profile.StreamStat,
	objOf func(int32) *profile.ObjInfo,
	program *prog.Program,
	loops *cfg.ProgramLoops,
	opt Options,
) (*Report, error) {
	opt = opt.withDefaults()
	rep := &Report{
		Program:      meta.Program,
		TotalLatency: meta.TotalLatency,
		NumSamples:   meta.NumSamples,
		Threads:      meta.Threads,
		OverheadPct:  meta.OverheadPct,
		Loops:        loops,
	}

	byID := make(map[uint64]*identityParts)
	var ranked []*identityParts
	for _, part := range parts {
		for id, acc := range part {
			ip := byID[id]
			if ip == nil {
				ip = &identityParts{identity: id}
				byID[id] = ip
				ranked = append(ranked, ip)
			}
			ip.add(acc)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].latency != ranked[j].latency {
			return ranked[i].latency > ranked[j].latency
		}
		return ranked[i].identity < ranked[j].identity
	})

	for rank, ip := range ranked {
		ld := 0.0
		if meta.TotalLatency > 0 {
			ld = float64(ip.latency) / float64(meta.TotalLatency)
		}
		analyzed := rank < opt.TopK && ld >= opt.MinLd
		rep.Ranking = append(rep.Ranking, RankEntry{
			Identity:   ip.identity,
			Name:       displayName(&ip.anyObj, program),
			Ld:         ld,
			LatencySum: ip.latency,
			NumSamples: ip.samples,
			Analyzed:   analyzed,
		})
		if !analyzed {
			continue
		}
		rep.Structures = append(rep.Structures, finalizeStruct(ip, ld, streams, objOf, program, loops, opt))
	}
	return rep, nil
}

// identityParts is one identity's accumulators across the report's parts,
// with the ranking totals summed. It merges totals, never cells.
type identityParts struct {
	identity uint64
	latency  uint64
	samples  uint64
	anyObj   profile.ObjInfo
	hasObj   bool
	accs     []*IdentityAccum
}

func (ip *identityParts) add(acc *IdentityAccum) {
	ip.latency += acc.Latency
	ip.samples += acc.Samples
	if acc.HasObj && (!ip.hasObj || acc.AnyObj.ID < ip.anyObj.ID) {
		ip.anyObj = acc.AnyObj
		ip.hasObj = true
	}
	ip.accs = append(ip.accs, acc)
}

// numObjects counts the union of the parts' object sets.
func (ip *identityParts) numObjects() int {
	union := make(map[int32]bool)
	for _, acc := range ip.accs {
		for id := range acc.Objects {
			union[id] = true
		}
	}
	return len(union)
}

// finalizeStruct runs stages 2 and 3 for one structure from its
// accumulators and the merged stream statistics.
func finalizeStruct(
	ip *identityParts,
	ld float64,
	allStreams map[profile.StreamKey]*profile.StreamStat,
	objOf func(int32) *profile.ObjInfo,
	program *prog.Program,
	loops *cfg.ProgramLoops,
	opt Options,
) *StructReport {
	sr := &StructReport{
		Identity:     ip.identity,
		Name:         displayName(&ip.anyObj, program),
		Ld:           ld,
		LatencySum:   ip.latency,
		NumSamples:   ip.samples,
		NumObjects:   ip.numObjects(),
		LevelSamples: make(map[uint8]uint64),
	}

	// Debug info (used for validation and naming only).
	var debugType *prog.StructType
	if ip.anyObj.TypeID >= 0 && int(ip.anyObj.TypeID) < len(program.Types) {
		debugType = program.Types[ip.anyObj.TypeID]
		sr.TypeName = debugType.Name
		sr.TrueSize = debugType.Size
		sr.debugType = debugType
	}

	// --- Stage 2a: streams and strides (Equations 2–3, 5) ---------------
	type streamInfo struct {
		key   profile.StreamKey
		stat  *profile.StreamStat
		voted bool
	}
	var streams []streamInfo
	var sizeVotes []uint64
	for key, stat := range allStreams {
		if key.Identity != ip.identity {
			continue
		}
		si := streamInfo{key: key, stat: stat}
		if stat.Count >= MinStreamSamples && stat.GCD >= stride.MinMeaningfulStride {
			si.voted = true
			sizeVotes = append(sizeVotes, stat.GCD)
		}
		streams = append(streams, si)
	}
	sort.Slice(streams, func(i, j int) bool {
		if streams[i].key.IP != streams[j].key.IP {
			return streams[i].key.IP < streams[j].key.IP
		}
		return streams[i].key.Ctx < streams[j].key.Ctx
	})
	sr.InferredSize = stride.StructSize(sizeVotes)

	size := sr.InferredSize
	if size == 0 {
		// No regular stream pinned the size: the structure is accessed
		// irregularly everywhere; report streams but no field analysis.
		for _, si := range streams {
			sr.Streams = append(sr.Streams, streamReport(si.key.IP, si.stat, si.voted, UnknownOffset, program))
		}
		return sr
	}
	for _, acc := range ip.accs {
		for lvl, n := range acc.Levels {
			if n > 0 {
				sr.LevelSamples[uint8(lvl)] += n
			}
		}
	}

	// --- Stage 2b: fold every part's cells mod size — field and loop tables
	// Each cell is summed into one bucket per (region, field offset): a
	// cell of a local table keyed {LoopKey: region, RawOff: offset}, one
	// probe per cell. The field, loop and affinity tables are then built
	// from the buckets in the table's insertion order. Affinity (Equation
	// 7) counts co-occurrence within a region: the cell's loop, or for an
	// access outside every loop a per-instruction pseudo-region (bit 63
	// set, which no cfg.LoopKey has), so unrelated straight-line code does
	// not fake co-occurrence.
	buckets := newCellTable()
	for _, acc := range ip.accs {
		acc.cells.each(func(c *cell) {
			region := c.key.LoopKey
			if region == 0 {
				region = c.key.IP | 1<<63
			}
			b := buckets.get(CellKey{LoopKey: region, RawOff: c.key.RawOff % size}) // Equation 6
			b.Latency += c.Latency
			b.Samples += c.Samples
			b.Writes += c.Writes
		})
	}

	fields := make(map[uint64]CellStat)
	type loopAgg struct {
		lat     uint64
		offsets map[uint64]bool
	}
	loopTab := make(map[uint64]*loopAgg) // loop key (0 = outside)
	ab := affinity.NewBuilder()
	buckets.each(func(b *cell) {
		region, off := b.key.LoopKey, b.key.RawOff
		f := fields[off]
		f.Latency += b.Latency
		f.Samples += b.Samples
		f.Writes += b.Writes
		fields[off] = f

		loop := region
		if loop>>63 != 0 {
			loop = 0
		}
		la := loopTab[loop]
		if la == nil {
			la = &loopAgg{offsets: make(map[uint64]bool)}
			loopTab[loop] = la
		}
		la.lat += b.Latency
		la.offsets[off] = true

		weight := b.Latency
		if opt.WeightByCount {
			weight = b.Samples
		}
		ab.Add(region, off, weight)
	})

	// Field table (Table 5).
	offsets := make([]uint64, 0, len(fields))
	for off := range fields {
		offsets = append(offsets, off)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	for _, off := range offsets {
		f := fields[off]
		fr := FieldReport{
			Offset:     off,
			Name:       sr.fieldName(off),
			LatencySum: f.Latency,
			Samples:    f.Samples,
			Writes:     f.Writes,
		}
		if ip.latency > 0 {
			fr.Share = float64(fr.LatencySum) / float64(ip.latency)
		}
		sr.Fields = append(sr.Fields, fr)
	}

	// Loop table (Table 6).
	for key, la := range loopTab {
		lr := LoopReport{LatencySum: la.lat}
		if ip.latency > 0 {
			lr.Share = float64(la.lat) / float64(ip.latency)
		}
		if key != 0 {
			lr.Loop = loops.Info(key)
			if lr.Loop != nil {
				lr.Name = lr.Loop.Name()
			}
		} else {
			lr.Name = "(outside loops)"
		}
		for off := range la.offsets {
			lr.Offsets = append(lr.Offsets, off)
		}
		sort.Slice(lr.Offsets, func(i, j int) bool { return lr.Offsets[i] < lr.Offsets[j] })
		for _, off := range lr.Offsets {
			lr.FieldNames = append(lr.FieldNames, sr.fieldName(off))
		}
		sr.Loops = append(sr.Loops, lr)
	}
	sort.Slice(sr.Loops, func(i, j int) bool {
		if sr.Loops[i].LatencySum != sr.Loops[j].LatencySum {
			return sr.Loops[i].LatencySum > sr.Loops[j].LatencySum
		}
		// Ties break on (FnID, LoopID) — the canonical loop order — so
		// renderings are byte-identical across runs.
		li, lj := sr.Loops[i].Loop, sr.Loops[j].Loop
		if li != nil && lj != nil {
			if li.FnID != lj.FnID {
				return li.FnID < lj.FnID
			}
			return li.LoopID < lj.LoopID
		}
		return sr.Loops[i].Name < sr.Loops[j].Name
	})

	// Stream diagnostics, with each stream's resolved offset.
	for _, si := range streams {
		off := UnknownOffset
		if obj := objOf(si.stat.FirstObjID); obj != nil {
			off = stride.Offset(si.stat.FirstEA, obj.Base, size)
		}
		sr.Streams = append(sr.Streams, streamReport(si.key.IP, si.stat, si.voted, off, program))
	}

	// --- Stage 3: affinities and clustering (Equation 7) -----------------
	sr.Affinity = ab.Compute()
	sr.OffsetGroups = sr.Affinity.Cluster(opt.AffinityThreshold)
	sr.Advice = sr.buildAdvice(debugType)
	return sr
}
