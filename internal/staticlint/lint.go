package staticlint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/prog"
)

// LintKind classifies a layout-lint finding.
type LintKind int

const (
	// LintPaddingHole: alignment inserted unused bytes between two fields.
	LintPaddingHole LintKind = iota
	// LintTrailingPadding: the struct's padded size exceeds its last
	// field's end, wasting bytes in every array element.
	LintTrailingPadding
	// LintHotColdMix: the struct mixes fields with high latency share and
	// fields that are never (or barely) touched, so every cache line
	// fetched for the hot fields drags cold bytes along — the situation
	// structure splitting fixes.
	LintHotColdMix
	// LintNeverCoAccessed: the struct's fields partition into groups whose
	// static access sets never co-occur in any loop; the groups are
	// natural split candidates even before profiling.
	LintNeverCoAccessed
)

func (k LintKind) String() string {
	switch k {
	case LintPaddingHole:
		return "padding-hole"
	case LintTrailingPadding:
		return "trailing-padding"
	case LintHotColdMix:
		return "hot-cold-mix"
	case LintNeverCoAccessed:
		return "never-co-accessed"
	}
	return fmt.Sprintf("lint(%d)", int(k))
}

// Finding is one layout-lint diagnostic for a registered struct type.
type Finding struct {
	Kind   LintKind
	Struct string   // struct type name
	Fields []string // fields involved (kind-dependent)
	Bytes  int      // wasted bytes, for the padding kinds
	Detail string   // human-readable explanation
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: struct %s: %s", f.Kind, f.Struct, f.Detail)
}

// hotShare is the latency share above which a field counts as hot for
// the hot/cold-mix check (share of its structure's total latency).
const hotShare = 0.25

// Lint walks every struct type registered with the analyzed program and
// reports layout smells. The static analysis supplies per-loop field
// access sets; rep, when non-nil, supplies dynamic evidence (per-field
// latency shares and the affinity partition) for the hot/cold check.
// Findings are ordered by type-registry index, then by kind.
func Lint(a *Analysis, rep *core.Report) []Finding {
	var out []Finding
	for ti, st := range a.Program.Types {
		if st == nil || len(st.Fields) == 0 {
			continue
		}
		out = append(out, lintPadding(st)...)
		access := fieldAccessSets(a, ti)
		out = append(out, lintCoAccess(st, access)...)
		out = append(out, lintHotCold(st, access, structReportFor(rep, st.Name))...)
	}
	return out
}

// lintPadding flags alignment holes between consecutive fields and
// trailing padding. Fields are examined in offset order.
func lintPadding(st *prog.StructType) []Finding {
	fields := append([]prog.PhysField(nil), st.Fields...)
	sort.Slice(fields, func(i, j int) bool { return fields[i].Offset < fields[j].Offset })
	var out []Finding
	end := 0
	prev := ""
	for _, f := range fields {
		if f.Offset > end {
			out = append(out, Finding{
				Kind:   LintPaddingHole,
				Struct: st.Name,
				Fields: []string{prev, f.Name},
				Bytes:  f.Offset - end,
				Detail: fmt.Sprintf("%d padding byte(s) between %s and %s (bytes %d..%d)",
					f.Offset-end, fieldOrStart(prev), f.Name, end, f.Offset-1),
			})
		}
		if e := f.Offset + f.Size; e > end {
			end = e
		}
		prev = f.Name
	}
	if st.Size > end {
		out = append(out, Finding{
			Kind:   LintTrailingPadding,
			Struct: st.Name,
			Fields: []string{prev},
			Bytes:  st.Size - end,
			Detail: fmt.Sprintf("%d trailing padding byte(s) after %s (element size %d, fields end at %d)",
				st.Size-end, prev, st.Size, end),
		})
	}
	return out
}

func fieldOrStart(name string) string {
	if name == "" {
		return "start of struct"
	}
	return name
}

// fieldAccessSets maps each field index of type ti to the set of loop
// keys in which an exact static stream touches it. Accesses outside any
// loop use key 0 (cfg.LoopKey is always positive). A stream maps to a
// field only when its stride is a multiple of the element size, so its
// in-element offset is iteration-invariant.
func fieldAccessSets(a *Analysis, ti int) map[int]map[uint64]bool {
	st := a.Program.Types[ti]
	sets := make(map[int]map[uint64]bool)
	for _, obj := range a.Objects {
		if obj.TypeID != ti {
			continue
		}
		for _, sp := range obj.Streams {
			if st.Size > 0 && sp.Stride%uint64(st.Size) != 0 {
				continue
			}
			off := int(umod(sp.Disp, uint64(st.Size)))
			fi := st.FieldIndexAt(off)
			if fi < 0 {
				continue
			}
			var key uint64
			if sp.Loop != nil {
				key = sp.Loop.Key
			}
			if sets[fi] == nil {
				sets[fi] = make(map[uint64]bool)
			}
			sets[fi][key] = true
		}
	}
	return sets
}

// lintCoAccess partitions the accessed fields into connected components
// under "appears in the same loop", and reports when more than one
// component exists — the components are static split candidates.
func lintCoAccess(st *prog.StructType, access map[int]map[uint64]bool) []Finding {
	var accessed []int
	for fi := range access {
		accessed = append(accessed, fi)
	}
	if len(accessed) < 2 {
		return nil
	}
	sort.Ints(accessed)

	// Union-find over accessed fields; union any two sharing a loop key.
	parent := make(map[int]int, len(accessed))
	for _, fi := range accessed {
		parent[fi] = fi
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byLoop := make(map[uint64][]int)
	for _, fi := range accessed {
		for key := range access[fi] {
			byLoop[key] = append(byLoop[key], fi)
		}
	}
	for _, members := range byLoop {
		for _, fi := range members[1:] {
			parent[find(members[0])] = find(fi)
		}
	}

	comps := make(map[int][]int)
	for _, fi := range accessed {
		r := find(fi)
		comps[r] = append(comps[r], fi)
	}
	if len(comps) < 2 {
		return nil
	}
	var groups [][]int
	for _, c := range comps {
		sort.Ints(c)
		groups = append(groups, c)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })

	parts := make([]string, len(groups))
	var fields []string
	for gi, g := range groups {
		names := make([]string, len(g))
		for i, fi := range g {
			names[i] = st.Fields[fi].Name
			fields = append(fields, st.Fields[fi].Name)
		}
		parts[gi] = "{" + strings.Join(names, ",") + "}"
	}
	return []Finding{{
		Kind:   LintNeverCoAccessed,
		Struct: st.Name,
		Fields: fields,
		Detail: fmt.Sprintf("field groups %s are never accessed in the same loop; consider splitting",
			strings.Join(parts, " and ")),
	}}
}

// lintHotCold reports hot/cold field mixing. With a dynamic report the
// check uses measured latency shares (and the affinity partition when it
// already separates the offsets); otherwise it falls back to static
// evidence: fields accessed inside loops versus fields never accessed at
// all.
func lintHotCold(st *prog.StructType, access map[int]map[uint64]bool, sr *core.StructReport) []Finding {
	if sr != nil {
		return lintHotColdDynamic(st, sr)
	}
	var hot, cold []string
	coldBytes := 0
	for fi := range st.Fields {
		f := &st.Fields[fi]
		if loops, ok := access[fi]; ok {
			inLoop := false
			for key := range loops {
				if key != 0 {
					inLoop = true
					break
				}
			}
			if inLoop {
				hot = append(hot, f.Name)
			}
		} else {
			cold = append(cold, f.Name)
			coldBytes += f.Size
		}
	}
	if len(hot) == 0 || len(cold) == 0 {
		return nil
	}
	return []Finding{{
		Kind:   LintHotColdMix,
		Struct: st.Name,
		Fields: append(append([]string(nil), hot...), cold...),
		Bytes:  coldBytes,
		Detail: fmt.Sprintf("loop-accessed field(s) %s share the element with %d byte(s) of never-accessed field(s) %s (static evidence)",
			strings.Join(hot, ","), coldBytes, strings.Join(cold, ",")),
	}}
}

func lintHotColdDynamic(st *prog.StructType, sr *core.StructReport) []Finding {
	sampled := make(map[int]float64) // field index -> latency share
	for _, fr := range sr.Fields {
		if fr.Offset == core.UnknownOffset {
			continue
		}
		if fi := st.FieldIndexAt(int(fr.Offset)); fi >= 0 {
			sampled[fi] += fr.Share
		}
	}
	var hot, cold []string
	coldBytes := 0
	for fi := range st.Fields {
		f := &st.Fields[fi]
		if sampled[fi] >= hotShare {
			hot = append(hot, f.Name)
		} else if sampled[fi] == 0 {
			cold = append(cold, f.Name)
			coldBytes += f.Size
		}
	}
	var out []Finding
	if len(hot) > 0 && len(cold) > 0 {
		out = append(out, Finding{
			Kind:   LintHotColdMix,
			Struct: st.Name,
			Fields: append(append([]string(nil), hot...), cold...),
			Bytes:  coldBytes,
			Detail: fmt.Sprintf("hot field(s) %s (≥%.0f%% latency share) share the element with %d byte(s) of unsampled field(s) %s",
				strings.Join(hot, ","), hotShare*100, coldBytes, strings.Join(cold, ",")),
		})
	}
	// The affinity clustering (Equation 7) partitioning the sampled
	// offsets into more than one group is itself mixing evidence.
	if len(sr.OffsetGroups) > 1 {
		parts := make([]string, len(sr.OffsetGroups))
		for gi, g := range sr.OffsetGroups {
			names := make([]string, 0, len(g))
			for _, off := range g {
				if f := st.FieldAt(int(off)); f != nil {
					names = append(names, f.Name)
				} else {
					names = append(names, fmt.Sprintf("+%d", off))
				}
			}
			parts[gi] = "{" + strings.Join(names, ",") + "}"
		}
		out = append(out, Finding{
			Kind:   LintHotColdMix,
			Struct: st.Name,
			Detail: fmt.Sprintf("affinity clustering separates the accessed fields into %s",
				strings.Join(parts, " and ")),
		})
	}
	return out
}

// structReportFor finds the report's deep analysis for the named struct
// type, if the profiler produced one.
func structReportFor(rep *core.Report, typeName string) *core.StructReport {
	if rep == nil {
		return nil
	}
	for _, sr := range rep.Structures {
		if sr.TypeName == typeName {
			return sr
		}
	}
	return nil
}
