package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/prog"
)

// RenderText writes the full human-readable report: the hot-data ranking,
// and for each analyzed structure the field table (Table 5 style), the
// loop table (Table 6 style), affinities, and splitting advice.
func (r *Report) RenderText(w io.Writer) {
	fmt.Fprintf(w, "StructSlim report for %s\n", r.Program)
	fmt.Fprintf(w, "  samples: %d   total latency: %d cycles   threads: %d   measurement overhead: %.2f%%\n\n",
		r.NumSamples, r.TotalLatency, r.Threads, r.OverheadPct)

	fmt.Fprintf(w, "Hot data structures (l_d, Equation 1):\n")
	for _, e := range r.Ranking {
		mark := " "
		if e.Analyzed {
			mark = "*"
		}
		fmt.Fprintf(w, "  %s %-32s l_d=%6.2f%%  latency=%-10d samples=%d\n",
			mark, e.Name, 100*e.Ld, e.LatencySum, e.NumSamples)
	}
	fmt.Fprintln(w)

	for _, sr := range r.Structures {
		sr.renderText(w)
	}
}

func (sr *StructReport) renderText(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", sr.Name)
	if sr.TypeName != "" {
		fmt.Fprintf(w, "  type %s (debug info), true size %d bytes\n", sr.TypeName, sr.TrueSize)
	}
	fmt.Fprintf(w, "  l_d=%.2f%%  latency=%d  objects=%d  inferred struct size: %d bytes\n",
		100*sr.Ld, sr.LatencySum, sr.NumObjects, sr.InferredSize)

	if len(sr.LevelSamples) > 0 {
		fmt.Fprintf(w, "  Data sources:")
		names := []string{"", "L1", "L2", "L3", "mem", "mem", "mem"}
		for lvl := uint8(1); lvl < 7; lvl++ {
			if n := sr.LevelSamples[lvl]; n > 0 {
				nm := "mem"
				if int(lvl) < len(names) && names[lvl] != "" {
					nm = names[lvl]
				}
				fmt.Fprintf(w, "  %s=%d", nm, n)
			}
		}
		fmt.Fprintln(w)
	}
	if len(sr.Fields) > 0 {
		fmt.Fprintf(w, "  Fields (by access latency):\n")
		for _, f := range sr.Fields {
			fmt.Fprintf(w, "    %-12s offset %-4d  %6.2f%%  latency=%-9d samples=%d\n",
				f.Name, f.Offset, 100*f.Share, f.LatencySum, f.Samples)
		}
	}
	if len(sr.Loops) > 0 {
		fmt.Fprintf(w, "  Loops:\n")
		for _, l := range sr.Loops {
			fmt.Fprintf(w, "    %-22s %6.2f%%  fields: %s\n",
				l.Name, 100*l.Share, strings.Join(l.FieldNames, ","))
		}
	}
	if sr.Affinity != nil && len(sr.Affinity.Edges) > 0 {
		fmt.Fprintf(w, "  Affinities (Equation 7):\n")
		for _, e := range sr.Affinity.Edges {
			fmt.Fprintf(w, "    A(%s, %s) = %.2f\n", sr.fieldName(e.OffA), sr.fieldName(e.OffB), e.Value)
		}
	}
	if len(sr.Streams) > 0 {
		fmt.Fprintf(w, "  Streams (instruction × context × structure; * voted on size):\n")
		shown := sr.Streams
		const maxStreams = 24
		if len(shown) > maxStreams {
			shown = shown[:maxStreams]
		}
		for _, st := range shown {
			voted := " "
			if st.VotedSize {
				voted = "*"
			}
			off := "?"
			if st.Offset != UnknownOffset {
				off = fmt.Sprintf("%d", st.Offset)
			}
			fmt.Fprintf(w, "    %s ip=%#x %-18s stride=%-5d offset=%-4s samples=%-5d latency=%d\n",
				voted, st.IP, st.Where, st.Stride, off, st.Samples, st.LatencySum)
		}
		if len(sr.Streams) > maxStreams {
			fmt.Fprintf(w, "    … %d more\n", len(sr.Streams)-maxStreams)
		}
	}
	switch {
	case sr.Advice == nil:
	case len(sr.Advice.Groups) < 2:
		fmt.Fprintf(w, "  No split recommended: all sampled fields belong together.\n")
	default:
		fmt.Fprintf(w, "  Splitting advice:\n%s", indent(sr.RenderAdvice(), "    "))
	}
	if lg := sr.Legality; lg != nil {
		fmt.Fprintf(w, "  Transform legality: %s", strings.ToUpper(lg.Verdict))
		if lg.AllFields {
			fmt.Fprintf(w, " {all fields}")
		}
		for _, p := range lg.Pairs {
			fmt.Fprintf(w, " {%s,%s}", p[0], p[1])
		}
		fmt.Fprintln(w)
		if lg.Reason != "" {
			fmt.Fprintf(w, "    %s\n", lg.Reason)
		}
	}
	fmt.Fprintln(w)
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// RenderStructs renders the advice as C-like struct definitions, the form
// the paper's Figures 7–13 use. Field types come from debug sizes when
// available.
func (a *SplitAdvice) RenderStructs(debugFields []prog.PhysField) string {
	var sb strings.Builder
	sizeOf := make(map[string]int, len(debugFields))
	floatOf := make(map[string]bool, len(debugFields))
	for _, f := range debugFields {
		sizeOf[f.Name] = f.Size
		floatOf[f.Name] = f.Float
	}
	ctype := func(name string) string {
		sz, ok := sizeOf[name]
		if !ok {
			return "word"
		}
		if floatOf[name] {
			return "double"
		}
		switch sz {
		case 1:
			return "char"
		case 2:
			return "short"
		case 4:
			return "int"
		case 8:
			return "long"
		default:
			return fmt.Sprintf("char[%d]", sz)
		}
	}
	for gi, g := range a.Groups {
		name := a.StructName
		if len(a.Groups) > 1 {
			name = fmt.Sprintf("%s_%d", a.StructName, gi)
		}
		fmt.Fprintf(&sb, "struct %s { ", name)
		for _, f := range g {
			fmt.Fprintf(&sb, "%s %s; ", ctype(f), f)
		}
		fmt.Fprintf(&sb, "};\n")
	}
	return sb.String()
}

// RenderAdvice renders the structure's splitting advice as paper-style
// struct definitions, typed via the debug-info field layout when known.
// Returns "" when there is no advice.
func (sr *StructReport) RenderAdvice() string {
	if sr.Advice == nil {
		return ""
	}
	var fields []prog.PhysField
	if sr.debugType != nil {
		fields = sr.debugType.Fields
	}
	return sr.Advice.RenderStructs(fields)
}

// FieldGroups returns the advised partition as field-name groups,
// deterministic and suitable for prog.Split / the split package.
func (a *SplitAdvice) FieldGroups() [][]string {
	out := make([][]string, len(a.Groups))
	for i, g := range a.Groups {
		out[i] = append([]string(nil), g...)
	}
	return out
}

// WriteDot emits the affinity graph in Graphviz dot format — the paper's
// Figure 6: nodes are structure fields (labeled with their latency
// share), undirected weighted edges are affinities, and the advised
// clusters are rendered as subgraphs.
func (sr *StructReport) WriteDot(w io.Writer) {
	fmt.Fprintf(w, "graph affinity_%s {\n", sanitizeDotID(sr.Name))
	fmt.Fprintf(w, "  label=\"field affinities of %s\";\n", sr.Name)
	fmt.Fprintf(w, "  node [shape=ellipse];\n")

	share := make(map[uint64]float64, len(sr.Fields))
	for _, f := range sr.Fields {
		share[f.Offset] = f.Share
	}
	for gi, g := range sr.OffsetGroups {
		fmt.Fprintf(w, "  subgraph cluster_%d {\n", gi)
		fmt.Fprintf(w, "    style=dashed;\n")
		for _, off := range g {
			fmt.Fprintf(w, "    f%d [label=\"%s\\n%.1f%%\"];\n", off, sr.fieldName(off), 100*share[off])
		}
		fmt.Fprintf(w, "  }\n")
	}
	if sr.Affinity != nil {
		// Edges are already sorted by (OffA, OffB) by construction.
		for _, e := range sr.Affinity.Edges {
			if e.Value <= 0 {
				continue
			}
			fmt.Fprintf(w, "  f%d -- f%d [label=\"%.2f\", weight=%d];\n",
				e.OffA, e.OffB, e.Value, int(e.Value*100))
		}
	}
	// Keep-apart pairs overlay the affinity edges as dashed red
	// constraints: whatever the locality says, these fields must not
	// share a cache line.
	for _, ka := range sr.KeepApart {
		fmt.Fprintf(w, "  f%d -- f%d [label=\"keep apart\", style=dashed, color=red, constraint=false];\n",
			ka[0], ka[1])
	}
	fmt.Fprintf(w, "}\n")
}

func sanitizeDotID(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}
