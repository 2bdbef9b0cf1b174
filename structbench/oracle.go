package main

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/optimize"
	"repro/structslim"
)

// paperGroup is the split group the paper puts one hot field in.
type paperGroup struct {
	field string
	group []string // sorted
}

// paperGroups copies, for each paper program, the group its hot field
// lands in after splitting, from the split structures of Figures 7-13 of
// Roy & Liu, "StructSlim: A Lightweight Profiler to Guide Structure
// Splitting" (CGO 2016). The benchmark keeps its own copy so that the
// oracle does not come from the code it checks.
var paperGroups = map[string]paperGroup{
	"art":        {"P", []string{"P"}},                     // Figure 7
	"libquantum": {"state", []string{"state"}},             // Figure 8
	"tsp":        {"next", []string{"next", "x", "y"}},     // Figure 9
	"mser":       {"parent", []string{"parent"}},           // Figure 10
	"clomp":      {"value", []string{"nextZone", "value"}}, // Figure 11
	"health":     {"forward", []string{"forward"}},         // Figure 12
	"nn":         {"dist", []string{"dist"}},               // Figure 13
}

// checkAdvice checks that the report puts the record's hot field in the
// paper's group.
func checkAdvice(rep *core.Report, record string, want paperGroup) error {
	sr := structslim.FindStruct(rep, record)
	if sr == nil {
		return fmt.Errorf("%s: record %s is not among the analyzed structures", rep.Program, record)
	}
	if sr.Advice == nil {
		return fmt.Errorf("%s: no split advice for %s", rep.Program, record)
	}
	for _, g := range sr.Advice.Groups {
		if !slices.Contains(g, want.field) {
			continue
		}
		got := slices.Clone(g)
		slices.Sort(got)
		if !slices.Equal(got, want.group) {
			return fmt.Errorf("%s: field %s is advised into {%s}, the paper has {%s}",
				rep.Program, want.field, strings.Join(got, ","), strings.Join(want.group, ","))
		}
		return nil
	}
	return fmt.Errorf("%s: field %s is in no advised group of %s", rep.Program, want.field, record)
}

// checkSelection checks the optimizer's guarantee on the exact machine:
// the selected layout is no slower than the original layout, nor than
// the paper's advice when the advice produced a candidate.
func checkSelection(r *optimize.Result) error {
	switch {
	case r.ExactSelected == 0 || r.ExactBaseline == 0:
		return fmt.Errorf("%s: the selection was not confirmed on the exact machine", r.Workload)
	case r.ExactSelected > r.ExactBaseline:
		return fmt.Errorf("%s: the selected layout takes %d cycles, the original %d", r.Workload, r.ExactSelected, r.ExactBaseline)
	case r.ExactAdvice > 0 && r.ExactSelected > r.ExactAdvice:
		return fmt.Errorf("%s: the selected layout takes %d cycles, the advice %d", r.Workload, r.ExactSelected, r.ExactAdvice)
	}
	return nil
}

// measurements counts the layout measurements one optimizer run made:
// every ranked row once, plus its exact confirmations.
func measurements(r *optimize.Result) int {
	n := len(r.Ranked)
	for _, m := range r.Ranked {
		if m.ExactCycles > 0 {
			n++
		}
	}
	return n
}

func confirmed(r *optimize.Result) int { return measurements(r) - len(r.Ranked) }

func render(rep *core.Report) []byte {
	var buf bytes.Buffer
	rep.RenderText(&buf)
	return buf.Bytes()
}
