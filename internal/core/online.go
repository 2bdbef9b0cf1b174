package core

import (
	"math/bits"
	"math/rand/v2"
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
	Levels map[uint8]uint64

	// lastObj is the previous sample's object, already in Objects.
	lastObj int32

	// The cells apply the paper's hot/cold split to the accumulator
	// itself. blocks holds each cell beside its key; a block is allocated
	// at its full capacity and never moves, so a new cell is written once
	// and never copied. slots is an open-addressed index over them: a
	// probe compares each slot's 32-bit hash tag and reads a 48-byte cell
	// only when its tag matches. Both are pointer-free, so the garbage
	// collector has nothing in them to scan.
	blocks [][]cell
	slots  []uint64
	nCells int
}

// cell is one accumulation cell with its key.
type cell struct {
	key CellKey
	CellStat
}

const (
	// Cell blocks double from firstBlockCells up to maxBlockCells, so a
	// small identity stays small and a large one wastes at most one
	// block's tail.
	firstBlockCells = 64
	maxBlockCells   = 4096
	// minSlots is the slot table's first size. It doubles whenever an
	// insert would push its load above 3/4.
	minSlots = 16

	// A slot packs the hash tag into its high 32 bits and the cell's
	// location, block<<slotIdxBits | index in block, into its low 32. The
	// tag's low bit is always set, so an empty slot is exactly 0.
	slotIdxBits = 12 // log2(maxBlockCells)
	slotLocMask = 1<<32 - 1
	slotIdxMask = 1<<slotIdxBits - 1
)

// cellSeed keys the cell hash per process, so a client that controls
// sampled IPs and addresses cannot choose keys that collide in every
// run and force long probe chains.
var cellSeed = [2]uint64{rand.Uint64(), rand.Uint64()}

// cellHash mixes a key nonlinearly: the 128-bit product of two
// seed-xored key words, folded to 64 bits.
func cellHash(k *CellKey) uint64 {
	hi, lo := bits.Mul64(k.IP^k.LoopKey^cellSeed[0], k.RawOff^cellSeed[1])
	return hi ^ lo
}

// NewIdentityAccum returns an empty accumulator for one identity.
func NewIdentityAccum(identity uint64) *IdentityAccum {
	return &IdentityAccum{
		Identity: identity,
		Objects:  make(map[int32]bool),
		Levels:   make(map[uint8]uint64),
		slots:    make([]uint64, minSlots),
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
		if li := loops.LoopOfIP(s.IP); li != nil {
			loopKey = li.Key
		}
	}
	cs := a.cell(CellKey{LoopKey: loopKey, IP: s.IP, RawOff: s.EA - obj.Base})
	cs.Latency += uint64(s.Latency)
	cs.Samples++
	if s.Write {
		cs.Writes++
	}
	a.Levels[s.Level]++
}

// NumCells returns the number of distinct cells accumulated so far.
func (a *IdentityAccum) NumCells() int { return a.nCells }

// cell returns the tally of key k, adding an empty cell on first sight.
func (a *IdentityAccum) cell(k CellKey) *CellStat {
	h := cellHash(&k)
	tag := h>>32 | 1
	mask := uint64(len(a.slots) - 1)
	i := h & mask
	for ; a.slots[i] != 0; i = (i + 1) & mask {
		if s := a.slots[i]; s>>32 == tag {
			if c := a.at(s); c.key == k {
				return &c.CellStat
			}
		}
	}
	if 4*(a.nCells+1) > 3*len(a.slots) {
		a.grow()
		i = a.emptySlot(h)
	}
	loc := a.appendCell(k)
	a.slots[i] = tag<<32 | loc
	return &a.at(loc).CellStat
}

// emptySlot returns the first empty slot on hash h's probe path.
func (a *IdentityAccum) emptySlot(h uint64) uint64 {
	mask := uint64(len(a.slots) - 1)
	i := h & mask
	for a.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// at returns the cell a slot (or a bare location) points to.
func (a *IdentityAccum) at(slot uint64) *cell {
	loc := slot & slotLocMask
	return &a.blocks[loc>>slotIdxBits][loc&slotIdxMask]
}

// appendCell stores a new cell, opening the next block when the last one
// is full, and returns its location.
func (a *IdentityAccum) appendCell(k CellKey) uint64 {
	n := len(a.blocks)
	if n == 0 || len(a.blocks[n-1]) == cap(a.blocks[n-1]) {
		size := firstBlockCells
		if n > 0 {
			size = min(2*cap(a.blocks[n-1]), maxBlockCells)
		}
		a.blocks = append(a.blocks, make([]cell, 0, size))
		n++
	}
	blk := &a.blocks[n-1]
	*blk = append(*blk, cell{key: k})
	a.nCells++
	return uint64(n-1)<<slotIdxBits | uint64(len(*blk)-1)
}

// eachCell calls fn once on every cell, in insertion order.
func (a *IdentityAccum) eachCell(fn func(*cell)) {
	for _, blk := range a.blocks {
		for j := range blk {
			fn(&blk[j])
		}
	}
}

// grow doubles the slot table and reinserts every cell from its blocks.
func (a *IdentityAccum) grow() {
	a.slots = make([]uint64, 2*len(a.slots))
	for b, blk := range a.blocks {
		for j := range blk {
			h := cellHash(&blk[j].key)
			a.slots[a.emptySlot(h)] = (h>>32|1)<<32 | uint64(b)<<slotIdxBits | uint64(j)
		}
	}
}

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
		analyzed := (rank < opt.TopK && ld >= opt.MinLd) || opt.KeepAllGroups
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
		sr.debugFields = debugType.Fields
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
		if stat.Count >= opt.MinStreamSamples && stat.GCD >= stride.MinMeaningfulStride {
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
			sr.Streams = append(sr.Streams, streamReport(si.key.IP, si.stat, si.voted, UnknownOffset, program, loops))
		}
		return sr
	}
	for _, acc := range ip.accs {
		for lvl, n := range acc.Levels {
			sr.LevelSamples[lvl] += n
		}
	}

	// --- Stage 2b: fold every part's cells mod size — field and loop tables
	// Each cell is summed into one bucket per (region, field offset), one
	// map operation per cell; the field, loop and affinity tables are then
	// built from the buckets. Affinity (Equation 7) counts co-occurrence
	// within a region: the cell's loop, or for an access outside every
	// loop a per-instruction pseudo-region (bit 63 set, which no
	// cfg.LoopKey has), so unrelated straight-line code does not fake
	// co-occurrence.
	type bucket struct {
		region, off uint64
		CellStat
	}
	bucketIdx := make(map[[2]uint64]int32)
	var buckets []bucket
	for _, acc := range ip.accs {
		acc.eachCell(func(c *cell) {
			region := c.key.LoopKey
			if region == 0 {
				region = c.key.IP | 1<<63
			}
			off := c.key.RawOff % size // Equation 6
			k := [2]uint64{region, off}
			bi, ok := bucketIdx[k]
			if !ok {
				bi = int32(len(buckets))
				bucketIdx[k] = bi
				buckets = append(buckets, bucket{region: region, off: off})
			}
			b := &buckets[bi]
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
	for i := range buckets {
		b := &buckets[i]
		f := fields[b.off]
		f.Latency += b.Latency
		f.Samples += b.Samples
		f.Writes += b.Writes
		fields[b.off] = f

		loop := b.region
		if loop>>63 != 0 {
			loop = 0
		}
		la := loopTab[loop]
		if la == nil {
			la = &loopAgg{offsets: make(map[uint64]bool)}
			loopTab[loop] = la
		}
		la.lat += b.Latency
		la.offsets[b.off] = true

		weight := b.Latency
		if opt.WeightByCount {
			weight = b.Samples
		}
		ab.Add(b.region, b.off, weight)
	}

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
		sr.Streams = append(sr.Streams, streamReport(si.key.IP, si.stat, si.voted, off, program, loops))
	}

	// --- Stage 3: affinities and clustering (Equation 7) -----------------
	sr.Affinity = ab.Compute()
	sr.OffsetGroups = sr.Affinity.Cluster(opt.AffinityThreshold)
	sr.Advice = sr.buildAdvice(debugType)
	return sr
}
