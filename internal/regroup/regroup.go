// Package regroup implements the paper's stated future work: array
// regrouping guidance (Section 7; the technique of ArrayTool, the
// authors' companion profiler). Where structure splitting separates
// fields that are *not* used together, array regrouping is the inverse —
// it finds *distinct* arrays that are always accessed together in the
// same loops and advises interleaving them into one array of structs, so
// one cache line serves all of them per index.
//
// The analysis reuses StructSlim's machinery one level up: data-centric
// identities play the role fields played, per-loop latency co-occurrence
// feeds the same Equation 7 affinity, and single-link clustering yields
// the regrouping advice. A candidate must look like a dense array —
// a dominant constant stride no larger than a cache line — because
// interleaving irregular or aggregate-strided structures is the job of
// structure splitting, not regrouping.
package regroup

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/affinity"
	"repro/internal/cfg"
	"repro/internal/profile"
	"repro/internal/prog"
)

// Options tunes the analysis.
type Options struct {
	// AffinityThreshold is the clustering cut (default 0.5).
	AffinityThreshold float64
	// MinLd drops arrays below this share of total latency; 0 keeps
	// every array, as core.Options.MinLd keeps every structure.
	MinLd float64
	// Frozen is the set of identities the transform-legality pass
	// refused to touch (legality.FrozenIdentities). Frozen arrays are
	// excluded from clustering — interleaving moves their elements just
	// like splitting would — and reported as skipped.
	Frozen map[uint64]bool
}

// maxStride is the largest dominant stream stride a candidate may have
// and still count as a dense array: one 64-byte line.
const maxStride = 64

// withDefaults fills the paper's 0.5 affinity cut into an unset
// threshold.
func (o Options) withDefaults() Options {
	if o.AffinityThreshold == 0 {
		o.AffinityThreshold = 0.5
	}
	return o
}

// Candidate is one dense array considered for regrouping.
type Candidate struct {
	Identity   uint64
	Name       string
	LatencySum uint64
	Ld         float64
	// Stride is the smallest meaningful stream stride observed — the
	// element size of the dense array.
	Stride uint64
}

// Group is a set of arrays advised to be interleaved.
type Group []Candidate

// Report is the analysis output.
type Report struct {
	Program      string
	TotalLatency uint64
	Candidates   []Candidate
	// Groups lists only multi-array clusters: the actionable advice.
	Groups []Group
	// Skipped lists arrays that qualified as candidates but were frozen
	// by the legality pass and so excluded from the advice.
	Skipped []Candidate
	// Affinity exposes the pairwise values for reporting.
	Affinity *affinity.Matrix
}

// Analyze runs array-regrouping analysis over a merged profile.
func Analyze(p *profile.Profile, program *prog.Program, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	if p == nil || program == nil {
		return nil, fmt.Errorf("nil profile or program")
	}
	loops, err := cfg.AnalyzeLoops(program)
	if err != nil {
		return nil, err
	}

	objByID := make(map[int32]*profile.ObjInfo, len(p.Objects))
	for i := range p.Objects {
		objByID[p.Objects[i].ID] = &p.Objects[i]
	}

	// Latency and display name per identity.
	latency := make(map[uint64]uint64)
	name := make(map[uint64]string)
	for i := range p.Samples {
		s := &p.Samples[i]
		if s.ObjID < 0 {
			continue
		}
		obj := objByID[s.ObjID]
		if obj == nil {
			continue
		}
		latency[obj.Identity] += uint64(s.Latency)
		if _, ok := name[obj.Identity]; !ok {
			name[obj.Identity] = obj.Name
		}
	}

	// Dominant (smallest meaningful) stride per identity, from the
	// online stream stats.
	minStride := make(map[uint64]uint64)
	for key, st := range p.Streams {
		if st.GCD < 2 {
			continue
		}
		if cur, ok := minStride[key.Identity]; !ok || st.GCD < cur {
			minStride[key.Identity] = st.GCD
		}
	}

	// Candidates: hot enough and dense enough — and not frozen by the
	// legality pass.
	var candidates, skipped []Candidate
	isCandidate := make(map[uint64]bool)
	for ident, lat := range latency {
		ld := 0.0
		if p.TotalLatency > 0 {
			ld = float64(lat) / float64(p.TotalLatency)
		}
		stride, ok := minStride[ident]
		if !ok || stride > maxStride || ld < opt.MinLd {
			continue
		}
		c := Candidate{
			Identity: ident, Name: name[ident], LatencySum: lat, Ld: ld, Stride: stride,
		}
		if opt.Frozen[ident] {
			skipped = append(skipped, c)
			continue
		}
		candidates = append(candidates, c)
		isCandidate[ident] = true
	}
	byHeat := func(cs []Candidate) func(i, j int) bool {
		return func(i, j int) bool {
			if cs[i].LatencySum != cs[j].LatencySum {
				return cs[i].LatencySum > cs[j].LatencySum
			}
			return cs[i].Identity < cs[j].Identity
		}
	}
	sort.Slice(candidates, byHeat(candidates))
	sort.Slice(skipped, byHeat(skipped))

	// Equation 7 over identities: co-occurrence within loops.
	ab := affinity.NewBuilder()
	for i := range p.Samples {
		s := &p.Samples[i]
		if s.ObjID < 0 {
			continue
		}
		obj := objByID[s.ObjID]
		if obj == nil || !isCandidate[obj.Identity] {
			continue
		}
		affKey := s.IP | 1<<63
		if li := loops.LoopOfIP(s.IP); li != nil {
			affKey = li.Key
		}
		ab.Add(affKey, obj.Identity, uint64(s.Latency))
	}
	matrix := ab.Compute()

	rep := &Report{
		Program:      program.Name,
		TotalLatency: p.TotalLatency,
		Candidates:   candidates,
		Skipped:      skipped,
		Affinity:     matrix,
	}
	byIdent := make(map[uint64]Candidate, len(candidates))
	for _, c := range candidates {
		byIdent[c.Identity] = c
	}
	for _, cluster := range matrix.Cluster(opt.AffinityThreshold) {
		if len(cluster) < 2 {
			continue
		}
		var g Group
		for _, ident := range cluster {
			g = append(g, byIdent[ident])
		}
		sort.Slice(g, func(i, j int) bool { return g[i].Name < g[j].Name })
		rep.Groups = append(rep.Groups, g)
	}
	sort.Slice(rep.Groups, func(i, j int) bool { return rep.Groups[i][0].Name < rep.Groups[j][0].Name })
	return rep, nil
}

// RenderText writes the advice.
func (r *Report) RenderText(w io.Writer) {
	fmt.Fprintf(w, "Array regrouping analysis for %s\n", r.Program)
	fmt.Fprintf(w, "  Dense-array candidates:\n")
	for _, c := range r.Candidates {
		fmt.Fprintf(w, "    %-32s stride %-3d  l_d=%5.1f%%\n", c.Name, c.Stride, 100*c.Ld)
	}
	for _, c := range r.Skipped {
		fmt.Fprintf(w, "    %-32s stride %-3d  l_d=%5.1f%%  SKIPPED (frozen by legality pass)\n",
			c.Name, c.Stride, 100*c.Ld)
	}
	if len(r.Groups) == 0 {
		fmt.Fprintf(w, "  No regrouping opportunity found.\n")
		return
	}
	for i, g := range r.Groups {
		fmt.Fprintf(w, "  Group %d — interleave into one array of structs:\n", i+1)
		for _, c := range g {
			fmt.Fprintf(w, "    %s (element %d bytes)\n", c.Name, c.Stride)
		}
	}
}
