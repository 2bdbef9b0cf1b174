// Package split applies StructSlim's advice: it turns an advised field
// partition into a concrete physical layout (prog.PhysLayout) that a
// workload can be rebuilt with. The paper performs this step by hand on
// source code; automating it lets the benchmark harness measure the
// advice's effect end to end.
package split

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/prog"
)

// Key returns a canonical structural identity for a layout: the field
// partition with concrete intra-struct offsets plus each struct's padded
// stride. Two layouts with equal keys lower every workload to the same
// program, so the optimizer's enumerator uses the key for structural
// deduplication (it distinguishes reorderings and stride paddings that
// the group partition alone would conflate).
func Key(l *prog.PhysLayout) string {
	var b strings.Builder
	b.WriteString(l.Record.Name)
	for _, st := range l.Structs {
		b.WriteByte('|')
		for i, f := range st.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s@%d", f.Name, f.Offset)
		}
		fmt.Fprintf(&b, "/%d", st.Size)
	}
	return b.String()
}

// LayoutFromGroups builds the split layout for a record from field-name
// groups, gated on a transform-legality verdict. A frozen structure is
// refused outright; keep-together constraints merge the proposed groups
// that would separate constrained fields (union-find over the pair
// graph), so the layout that comes back is the closest legal
// approximation of the advice. A nil summary means no legality analysis
// ran and takes the groups as they are. Fields of the record not
// mentioned in any group are appended as singleton groups (cold fields
// the profiler never sampled still need a home — the paper gives ART's
// untouched field R its own struct). Unknown field names are rejected.
func LayoutFromGroups(rec *prog.RecordSpec, groups [][]string, lg *core.LegalitySummary) (*prog.PhysLayout, error) {
	groups, err := applyLegality(rec, groups, lg)
	if err != nil {
		return nil, err
	}
	covered := make(map[string]bool)
	var cleaned [][]string
	for _, g := range groups {
		var cg []string
		for _, name := range g {
			if rec.FieldIndex(name) < 0 {
				return nil, fmt.Errorf("advice names unknown field %q of %s", name, rec.Name)
			}
			if covered[name] {
				return nil, fmt.Errorf("advice places field %q of %s in two groups", name, rec.Name)
			}
			covered[name] = true
			cg = append(cg, name)
		}
		if len(cg) > 0 {
			cleaned = append(cleaned, cg)
		}
	}
	for _, f := range rec.Fields {
		if !covered[f.Name] {
			cleaned = append(cleaned, []string{f.Name})
		}
	}
	return prog.Split(rec, cleaned)
}

// LayoutFromAdvice builds the split layout directly from an analyzer
// report's advice, gated on a legality verdict as LayoutFromGroups is
// (nil: no legality pass). Positional field names ("+24") mean the
// analyzer lacked debug info for some offsets; those cannot be mapped
// onto the record and are rejected.
func LayoutFromAdvice(rec *prog.RecordSpec, adv *core.SplitAdvice, lg *core.LegalitySummary) (*prog.PhysLayout, error) {
	if adv == nil {
		return nil, fmt.Errorf("no advice for %s", rec.Name)
	}
	for _, g := range adv.Groups {
		for _, name := range g {
			if len(name) > 0 && name[0] == '+' {
				return nil, fmt.Errorf("advice for %s contains unresolved offset %s", rec.Name, name)
			}
		}
	}
	return LayoutFromGroups(rec, adv.FieldGroups(), lg)
}

// applyLegality rewrites the proposed groups under the verdict's
// constraints. Fields named by keep-together pairs but absent from every
// group are pulled in, so the merge also captures pairs involving cold
// fields that would otherwise become singletons.
func applyLegality(rec *prog.RecordSpec, groups [][]string, lg *core.LegalitySummary) ([][]string, error) {
	if lg == nil {
		return groups, nil
	}
	if lg.Frozen() {
		why := lg.Reason
		if why == "" {
			why = "no split is provably safe"
		}
		return nil, fmt.Errorf("legality: %s is frozen: %s", rec.Name, why)
	}
	if lg.AllFields {
		all := make([]string, len(rec.Fields))
		for i, f := range rec.Fields {
			all[i] = f.Name
		}
		return [][]string{all}, nil
	}
	if len(lg.Pairs) == 0 {
		return groups, nil
	}

	idx := func(name string) (int, error) {
		i := rec.FieldIndex(name)
		if i < 0 {
			return 0, fmt.Errorf("advice names unknown field %q of %s", name, rec.Name)
		}
		return i, nil
	}
	parent := make([]int, len(rec.Fields))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[rb] = ra
		}
	}
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		a, err := idx(g[0])
		if err != nil {
			return nil, err
		}
		for _, name := range g[1:] {
			b, err := idx(name)
			if err != nil {
				return nil, err
			}
			union(a, b)
		}
	}
	for _, p := range lg.Pairs {
		a, err := idx(p[0])
		if err != nil {
			return nil, err
		}
		b, err := idx(p[1])
		if err != nil {
			return nil, err
		}
		union(a, b)
	}

	// Rebuild groups in advice order (hot fields first), appending
	// pair-only fields after, so the merge is deterministic and keeps the
	// advice's intra-group ordering.
	buckets := make(map[int]int) // root → output group index
	var out [][]string
	seen := make(map[string]bool)
	add := func(fi int, name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		r := find(fi)
		gi, ok := buckets[r]
		if !ok {
			gi = len(out)
			buckets[r] = gi
			out = append(out, nil)
		}
		out[gi] = append(out[gi], name)
	}
	for _, g := range groups {
		for _, name := range g {
			fi, _ := idx(name)
			add(fi, name)
		}
	}
	for _, p := range lg.Pairs {
		for _, name := range p {
			fi, _ := idx(name)
			add(fi, name)
		}
	}
	return out, nil
}
