// Package core is StructSlim's offline analyzer — the paper's primary
// contribution. It consumes a merged address-sample profile and the
// program binary and produces structure-splitting advice through the
// pipeline of Figure 2:
//
//  1. pinpoint hot data: rank logical data structures by their share of
//     total access latency, l_d (Equation 1), and keep the top few;
//  2. analyze access patterns: group samples into streams (one memory
//     instruction × one data structure), recover each stream's stride
//     with the GCD algorithm (Equations 2–3), derive the structure size
//     (Equation 5) and each stream's field offset (Equation 6);
//  3. compute field affinities: latency-weighted co-occurrence across
//     loops (Equation 7), cluster high-affinity fields, and emit the
//     split advice — as structured data, as paper-style struct
//     definitions, and as the dot affinity graph of Figure 6.
//
// Loops are recovered from the binary by interval analysis (package cfg);
// field names come from debug info (the program's struct-type registry)
// and are used only for presentation — every analysis decision is made on
// raw offsets, as on a real binary.
package core

import (
	"fmt"

	"repro/internal/affinity"
	"repro/internal/cfg"
	"repro/internal/profile"
	"repro/internal/prog"
)

// Options tunes the analyzer.
type Options struct {
	// TopK is how many data structures to analyze in depth, ranked by
	// l_d. The paper: "we only need to investigate the top three".
	TopK int
	// MinLd drops structures below this latency share (0..1) even inside
	// the top K.
	MinLd float64
	// AffinityThreshold is the clustering cut: fields joined by an edge
	// with A_ij at or above it are grouped into the same split struct.
	AffinityThreshold float64
	// WeightByCount switches Equation 7 from latency-weighted to
	// access-count-weighted affinity — the Chilimbi-style baseline the
	// paper argues against. Exposed for the ablation study; the default
	// (false) is the paper's latency weighting.
	WeightByCount bool
}

// MinStreamSamples is the minimum sample count for a stream's stride to
// vote on the structure size (Equation 5). Equation 4 wants ~10 unique
// addresses for high confidence, but the cross-stream GCD already
// corrects multiples, so the bar is lower.
const MinStreamSamples = 3

// withDefaults fills the paper's settings into unset options: the top
// three structures (TopK 3) and the 0.5 affinity cut. MinLd stays as
// given; 0 keeps every structure inside the top K.
func (o Options) withDefaults() Options {
	if o.TopK == 0 {
		o.TopK = 3
	}
	if o.AffinityThreshold == 0 {
		o.AffinityThreshold = 0.5
	}
	return o
}

// UnknownOffset marks samples whose field offset could not be resolved.
const UnknownOffset = ^uint64(0)

// Report is the analyzer's full output.
type Report struct {
	Program      string
	TotalLatency uint64
	NumSamples   uint64
	Threads      int
	OverheadPct  float64

	// Structures lists the analyzed (significant) data structures in
	// descending l_d order; Ranking summarizes every structure seen.
	Structures []*StructReport
	Ranking    []RankEntry

	Loops *cfg.ProgramLoops
}

// RankEntry is one row of the hot-data ranking (Equation 1).
type RankEntry struct {
	Identity   uint64
	Name       string
	Ld         float64
	LatencySum uint64
	NumSamples uint64
	Analyzed   bool
}

// StructReport is the deep analysis of one significant data structure.
type StructReport struct {
	Identity   uint64
	Name       string // display name: symbol, or heap@file:line
	TypeName   string // debug-info struct type name, "" if unknown
	Ld         float64
	LatencySum uint64
	NumSamples uint64
	NumObjects int // heap objects aggregated under this identity

	// InferredSize is Equation 5's result from sampled strides;
	// TrueSize is the debug-info size (0 when unavailable). The two are
	// reported side by side as a validation of the GCD analysis.
	InferredSize uint64
	TrueSize     int

	// LevelSamples histograms the structure's samples by serving data
	// source (index = cache.Result.Level: 1=L1 … N+1=memory), the
	// PEBS-LL "data source" breakdown.
	LevelSamples map[uint8]uint64

	Fields  []FieldReport
	Loops   []LoopReport
	Streams []StreamReport

	Affinity     *affinity.Matrix
	OffsetGroups [][]uint64
	Advice       *SplitAdvice

	// KeepApart lists field-offset pairs a sharing analysis wants on
	// different cache lines (false-sharing "negative affinities"). The
	// pairs are not produced by the profiler itself; callers running the
	// static sharing analyzer attach them so WriteDot can overlay them
	// on the affinity graph. A pair may relate an offset to itself: the
	// field false-shares with its own copies in neighboring elements.
	// A report from stream.Analyzer.Report is shared by concurrent
	// readers and later reads, so never set this on it: attach to a copy
	// of the StructReport instead.
	KeepApart [][2]uint64

	// Legality is the static transform-legality verdict for this
	// structure, attached by callers running the legality pass (like
	// KeepApart, it is not produced by the profiler itself). When set,
	// Optimize consults it before building a split layout. Like
	// KeepApart, attach it to a copy of the StructReport when the report
	// came from stream.Analyzer.Report, which shares it.
	Legality *LegalitySummary

	// debugFields caches the debug-info field layout for name lookups.
	debugFields []prog.PhysField
}

// LegalitySummary condenses the alias/escape pass's per-object verdicts
// for one structure type into what the splitting machinery needs. When a
// type has several objects (a global array plus heap sites), the most
// restrictive verdict wins and keep-together pairs are unioned.
type LegalitySummary struct {
	// Verdict is "split-safe", "keep-together", or "frozen".
	Verdict string
	// Reason is the principal evidence line for a restrictive verdict
	// ("" for split-safe).
	Reason string
	// Pairs lists field-name pairs that must share a split group.
	Pairs [][2]string
	// AllFields means no split of this structure is useful: every field
	// must stay in one group.
	AllFields bool
}

// Frozen reports whether the verdict forbids any layout change.
func (l *LegalitySummary) Frozen() bool { return l != nil && l.Verdict == "frozen" }

// FieldReport aggregates one field (identified by offset) program-wide —
// the paper's Table 5 rows.
type FieldReport struct {
	Offset     uint64
	Name       string
	LatencySum uint64
	Share      float64 // of this structure's latency
	Samples    uint64
	Writes     uint64
}

// LoopReport aggregates one loop's accesses to the structure — the
// paper's Table 6 rows.
type LoopReport struct {
	Loop       *cfg.LoopInfo // nil for accesses outside any loop
	Name       string
	LatencySum uint64
	Share      float64
	Offsets    []uint64
	FieldNames []string
}

// StreamReport is the per-stream diagnostic view.
type StreamReport struct {
	IP         uint64
	Where      string // file:line
	Stride     uint64
	Offset     uint64 // UnknownOffset if unresolved
	Samples    uint64
	LatencySum uint64
	VotedSize  bool // contributed to Equation 5
}

// SplitAdvice is the actionable output: a partition of the structure's
// fields into new structs.
type SplitAdvice struct {
	StructName string
	// Groups partitions field names; Offsets holds the corresponding
	// sampled offsets (empty for fields never sampled, which become
	// singleton groups).
	Groups  [][]string
	Offsets [][]uint64
	// Complete is true when debug info allowed covering every field of
	// the record, so the advice is a valid total partition.
	Complete bool
}

// Analyze runs the full pipeline: accumulate per-identity state in one
// pass over the samples (see online.go), then build the report from the
// accumulators and the merged stream statistics.
func Analyze(p *profile.Profile, program *prog.Program, opt Options) (*Report, error) {
	if p == nil || program == nil {
		return nil, fmt.Errorf("nil profile or program")
	}
	loops, err := cfg.AnalyzeLoops(program)
	if err != nil {
		return nil, err
	}
	accums := AccumulateProfile(p, loops)
	meta := ReportMeta{
		Program:      program.Name,
		TotalLatency: p.TotalLatency,
		NumSamples:   p.NumSamples,
		Threads:      p.Threads,
		OverheadPct:  p.OverheadPct(),
	}
	parts := []map[uint64]*IdentityAccum{accums}
	return BuildReport(meta, parts, p.Streams, p.ObjByID, program, loops, opt)
}

// displayName renders a structure's identity for humans: the symbol name
// for statics, the allocation site for heap identities.
func displayName(obj *profile.ObjInfo, program *prog.Program) string {
	if obj == nil {
		return "?"
	}
	if !obj.Heap {
		return obj.Name
	}
	if file, line := program.LineOf(obj.AllocIP); file != "" {
		return fmt.Sprintf("heap@%s:%d", file, line)
	}
	return obj.Name
}

// fieldName resolves an offset to a field name via debug info; offsets in
// padding or without debug info render positionally.
func (sr *StructReport) fieldName(off uint64) string {
	if sr.TrueSize > 0 {
		// InferredSize may be a multiple of the true size; normalize.
		o := off % uint64(sr.TrueSize)
		if sr.TypeName != "" {
			if f := sr.debugFieldAt(int(o)); f != nil {
				return f.Name
			}
		}
	}
	return fmt.Sprintf("+%d", off)
}

// debugField finds the debug field covering an offset. StructReport does
// not retain the *StructType to stay serialization-friendly, so the
// analyzer stashes the fields it needs.
func (sr *StructReport) debugFieldAt(off int) *prog.PhysField {
	for i := range sr.debugFields {
		f := &sr.debugFields[i]
		if off >= f.Offset && off < f.Offset+f.Size {
			return f
		}
	}
	return nil
}

// buildAdvice converts offset clusters into a field partition. With debug
// info the partition is completed with never-sampled fields as singleton
// groups (the paper's ART splitting gives cold field R its own struct).
func (sr *StructReport) buildAdvice(debugType *prog.StructType) *SplitAdvice {
	if len(sr.OffsetGroups) == 0 {
		return nil
	}
	adv := &SplitAdvice{StructName: sr.Name}
	if sr.TypeName != "" {
		adv.StructName = sr.TypeName
	}
	covered := make(map[string]bool)
	for _, og := range sr.OffsetGroups {
		names := make([]string, 0, len(og))
		seen := make(map[string]bool)
		for _, off := range og {
			n := sr.fieldName(off)
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
				covered[n] = true
			}
		}
		adv.Groups = append(adv.Groups, names)
		adv.Offsets = append(adv.Offsets, og)
	}
	if debugType != nil {
		complete := true
		for _, f := range debugType.Fields {
			if !covered[f.Name] {
				adv.Groups = append(adv.Groups, []string{f.Name})
				adv.Offsets = append(adv.Offsets, nil)
			}
		}
		// Positional names mean some sampled offsets hit padding or the
		// size inference disagreed with debug info; the partition then
		// is not guaranteed total over real fields.
		for n := range covered {
			if len(n) > 0 && n[0] == '+' {
				complete = false
			}
		}
		adv.Complete = complete
	}
	return adv
}

func streamReport(ip uint64, stat *profile.StreamStat, voted bool, off uint64, program *prog.Program) StreamReport {
	rep := StreamReport{
		IP:         ip,
		Stride:     stat.GCD,
		Offset:     off,
		Samples:    stat.Count,
		LatencySum: stat.LatencySum,
		VotedSize:  voted,
	}
	if file, line := program.LineOf(ip); file != "" {
		rep.Where = fmt.Sprintf("%s:%d", file, line)
	}
	return rep
}
