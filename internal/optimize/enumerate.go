// Package optimize closes the loop the paper leaves open: where
// StructSlim stops at splitting *advice*, this package enumerates
// candidate layouts for the hot structure, mechanically applies each one,
// measures every variant on the simulated machine, and selects the
// fastest — a profile-guided optimizer rather than a profiler.
//
// The subsystem has three stages:
//
//  1. Enumerate derives candidate field groupings per hot struct: the
//     paper's SplitAdvice as a seed, a hot/cold bisection of the field
//     latency ranking, an agglomerative affinity ladder (single-link
//     clustering at every distinct edge score), the full split, a
//     hot-first field reordering, and a line-padded variant when a
//     sharing analysis flagged KeepApart pairs. Every grouping is gated
//     through the transform-legality verdict (frozen structures emit no
//     candidates; keep-together pairs are union-find merged by
//     split.LayoutFromGroups) and deduplicated structurally.
//  2. Each candidate is lowered to a prog.PhysLayout the workload can be
//     rebuilt with — the mechanical transform.
//  3. Run / RunWithReport execute the baseline and every variant once
//     on the exact machine through the parallel experiment engine
//     (internal/runner), rank them by measured cycles, and select the
//     fastest (see optimize.go).
package optimize

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/split"
)

// DefaultMaxCandidates bounds the enumeration; the affinity ladder can
// produce one candidate per distinct edge score, so a cap keeps the A/B
// loop's cost proportional to the interesting variants.
const DefaultMaxCandidates = 12

// DefaultLine is the cache-line size padded variants round strides to.
const DefaultLine = 64

// EnumOptions tunes the candidate enumerator.
type EnumOptions struct {
	// MaxCandidates caps the emitted candidates (0 = DefaultMaxCandidates).
	MaxCandidates int
}

// Candidate is one legal layout variant of the hot record.
type Candidate struct {
	// Label is the short deterministic name the ranked table shows
	// ("advice", "hot-cold", "affinity>=0.830", ...).
	Label string
	// Source says where the candidate came from.
	Source string
	// Layout is the concrete physical layout the workload rebuilds with.
	Layout *prog.PhysLayout
	// Key is the canonical structural identity (split.Key) used for
	// deduplication and for the experiment engine's result cache.
	Key string
}

// Enumerate derives the candidate layouts for one analyzed structure,
// gated on the report's legality verdict. For a frozen structure it
// returns no candidates and the freeze reason — the caller keeps the
// baseline. The identity AoS layout is never emitted (it is the
// baseline every candidate is measured against), and the result is
// deterministic: same report, same candidates, same order.
func Enumerate(rec *prog.RecordSpec, sr *core.StructReport, opt EnumOptions) ([]Candidate, string, error) {
	if rec == nil || sr == nil {
		return nil, "", fmt.Errorf("enumerate: nil record or structure report")
	}
	if sr.Legality.Frozen() {
		why := sr.Legality.Reason
		if why == "" {
			why = "no split is provably safe"
		}
		return nil, why, nil
	}
	max := opt.MaxCandidates
	if max <= 0 {
		max = DefaultMaxCandidates
	}

	baseKey := split.Key(prog.AoS(rec))
	seen := map[string]bool{baseKey: true}
	var out []Candidate
	// addLayout records a built layout unless it is a structural duplicate
	// of the baseline or an earlier candidate.
	addLayout := func(label, source string, l *prog.PhysLayout) {
		if l == nil || len(out) >= max {
			return
		}
		k := split.Key(l)
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, Candidate{Label: label, Source: source, Layout: l, Key: k})
	}
	// addPartition lowers a (possibly partial) field-name partition
	// through the legality gate: keep-together pairs merge the groups,
	// uncovered fields complete as singletons. Partitions the gate
	// rejects are silently skipped — legality wins over enumeration.
	addPartition := func(label, source string, groups [][]string) {
		if len(out) >= max {
			return
		}
		l, err := split.LayoutFromGroups(rec, groups, sr.Legality)
		if err != nil {
			return
		}
		addLayout(label, source, l)
	}

	// Sampled fields that map onto the record, hottest first. Positional
	// names ("+24", no debug info) cannot be placed and are skipped.
	type fieldInfo struct {
		name string
		lat  uint64
		idx  int
	}
	var hot []fieldInfo
	offName := make(map[uint64]string, len(sr.Fields))
	seenName := make(map[string]bool, len(sr.Fields))
	for _, fr := range sr.Fields {
		idx := rec.FieldIndex(fr.Name)
		if idx < 0 || seenName[fr.Name] {
			continue
		}
		seenName[fr.Name] = true
		offName[fr.Offset] = fr.Name
		hot = append(hot, fieldInfo{name: fr.Name, lat: fr.LatencySum, idx: idx})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].lat != hot[j].lat {
			return hot[i].lat > hot[j].lat
		}
		return hot[i].idx < hot[j].idx
	})

	// 1. The paper's advice (Eq. 7 clustering at the configured
	// threshold) seeds the search.
	if sr.Advice != nil {
		resolved := true
		for _, g := range sr.Advice.Groups {
			for _, name := range g {
				if strings.HasPrefix(name, "+") {
					resolved = false
				}
			}
		}
		if resolved {
			addPartition("advice", "paper SplitAdvice (Eq. 7 clustering)", sr.Advice.FieldGroups())
		}
	}

	// 2. Hot/cold bisection: cut the latency ranking at its largest
	// relative drop; the hot prefix becomes one struct, the cold tail
	// either singletons or one merged struct.
	if len(hot) >= 2 {
		cut, best := 1, -1.0
		for k := 1; k < len(hot); k++ {
			denom := hot[k].lat
			if denom == 0 {
				denom = 1
			}
			if r := float64(hot[k-1].lat) / float64(denom); r > best {
				best, cut = r, k
			}
		}
		hotNames := make([]string, cut)
		inHot := make(map[string]bool, cut)
		for i := 0; i < cut; i++ {
			hotNames[i] = hot[i].name
			inHot[hot[i].name] = true
		}
		addPartition("hot-cold", "largest latency gap in the field ranking; cold fields split out", [][]string{hotNames})
		var cold []string
		for _, f := range rec.Fields {
			if !inHot[f.Name] {
				cold = append(cold, f.Name)
			}
		}
		if len(cold) > 1 {
			addPartition("hot-cold-merge", "hot prefix vs one merged cold struct", [][]string{hotNames, cold})
		}
	}

	// 3. The full split: every field its own struct (the affinity
	// ladder's limit as the threshold exceeds the strongest edge).
	full := make([][]string, len(rec.Fields))
	for i, f := range rec.Fields {
		full[i] = []string{f.Name}
	}
	addPartition("full-split", "every field in its own struct", full)

	// 4. Hot-first reordering: a single struct, hottest fields at the
	// front — the cheap transform that packs co-hot fields into shared
	// lines without splitting. One struct can violate no keep-together
	// pair, so only the (already excluded) frozen verdict could forbid it.
	if len(hot) > 0 {
		order := make([]string, 0, len(rec.Fields))
		used := make(map[string]bool, len(rec.Fields))
		for _, fi := range hot {
			order = append(order, fi.name)
			used[fi.name] = true
		}
		for _, f := range rec.Fields {
			if !used[f.Name] {
				order = append(order, f.Name)
			}
		}
		if l, err := prog.Reordered(rec, order); err == nil {
			addLayout("reorder-hot-first", "single struct, fields reordered hottest-first", l)
		}
	}

	// 5. Line padding when a sharing analysis attached KeepApart pairs:
	// same partition as the baseline, strides rounded to the cache line so
	// neighboring elements stop sharing lines. Offsets are unchanged, so
	// keep-together constraints hold trivially.
	if len(sr.KeepApart) > 0 {
		addLayout(fmt.Sprintf("pad-line%d", DefaultLine),
			"baseline strides padded to the cache line (KeepApart pairs present)",
			prog.AoS(rec).Padded(DefaultLine))
	}

	// 6. The affinity ladder: single-link clustering at every distinct
	// edge score, strongest first — the agglomerative merge sequence over
	// the affinity matrix. Offsets without a resolvable field name drop
	// out of their cluster (the gate completes them as singletons).
	if sr.Affinity != nil {
		var vals []float64
		lastV := -1.0
		for _, e := range sr.Affinity.Edges {
			if e.Value > 0 {
				vals = append(vals, e.Value)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		for _, v := range vals {
			if v == lastV {
				continue
			}
			lastV = v
			var groups [][]string
			for _, cluster := range sr.Affinity.Cluster(v) {
				var g []string
				for _, off := range cluster {
					if name, ok := offName[off]; ok {
						g = append(g, name)
					}
				}
				if len(g) > 0 {
					groups = append(groups, g)
				}
			}
			addPartition(fmt.Sprintf("affinity>=%.3f", v), "single-link clustering at a raised threshold", groups)
		}
	}

	return out, "", nil
}
