// Package workloads reconstructs the paper's evaluation programs as
// synthetic kernels over the simulated machine.
//
// The seven benchmarks of Table 2 (ART, libquantum, TSP, MSER, CLOMP,
// Health, NN) are modeled from the paper's own findings: each workload
// declares the hot record type the paper names, allocates it the way the
// original program does (static symbol or per-node heap allocations), and
// runs loops at the paper's source lines touching the field subsets the
// paper reports, with iteration weights chosen so the latency breakdown
// lands near the published tables. Every kernel is written against the
// logical record (prog.RecordSpec) and lowered through a prog.PhysLayout,
// so the same workload builds in original (AoS) or split form — which is
// how the harness reproduces Tables 3 and 4 end to end.
//
// The Rodinia and SPEC CPU 2006 suites of Figures 4 and 5 are represented
// by stand-in kernels composed from the access-pattern library in
// patterns.go (streams, stencils, gathers, pointer chases, histograms),
// sized to each program's rough memory character. They carry no
// structure-splitting opportunity by construction; their role is the
// overhead measurement and analyzer robustness.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/prog"
	"repro/internal/vm"
)

// Scale selects problem sizes: Test keeps unit tests fast; Bench matches
// the paper-shaped experiments.
type Scale int

// Scales.
const (
	ScaleTest Scale = iota
	ScaleBench
)

func (s Scale) String() string {
	if s == ScaleTest {
		return "test"
	}
	return "bench"
}

// ParseScale is the inverse of Scale.String: it accepts exactly "test"
// and "bench".
func ParseScale(s string) (Scale, error) {
	switch s {
	case "test":
		return ScaleTest, nil
	case "bench":
		return ScaleBench, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want test or bench)", s)
}

// Phase is the threads of one sequential stage of a run.
type Phase = []vm.ThreadSpec

// Workload is one benchmark program.
type Workload interface {
	// Name is the registry key (lowercase).
	Name() string
	// Suite is the benchmark suite of Table 2.
	Suite() string
	// Description matches Table 2's application description.
	Description() string
	// Parallel reports whether the workload runs multithreaded.
	Parallel() bool
	// Record is the hot record type the paper splits, or nil when the
	// workload has no structure-splitting opportunity (suite stand-ins).
	Record() *prog.RecordSpec
	// Build lowers the workload against the layout (nil = original AoS
	// layout of Record; must be nil when Record is nil) and returns the
	// program plus its execution phases.
	Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error)
}

// registry of all workloads.
var registry = map[string]Workload{}

func register(w Workload) {
	if _, dup := registry[w.Name()]; dup {
		panic(fmt.Sprintf("duplicate workload %q", w.Name()))
	}
	registry[w.Name()] = w
}

// Get returns a workload by name.
func Get(name string) (Workload, error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, Names())
	}
	return w, nil
}

// Names lists all registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every workload, sorted by name.
func All() []Workload {
	names := Names()
	out := make([]Workload, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// PaperOrder is the benchmark order of Tables 2–4.
var PaperOrder = []string{"art", "libquantum", "tsp", "mser", "clomp", "health", "nn"}

// Paper returns the seven paper benchmarks in table order.
func Paper() []Workload {
	out := make([]Workload, 0, len(PaperOrder))
	for _, n := range PaperOrder {
		out = append(out, registry[n])
	}
	return out
}

// BySuite returns the workloads of one suite, sorted by name.
func BySuite(suite string) []Workload {
	var out []Workload
	for _, w := range All() {
		if w.Suite() == suite {
			out = append(out, w)
		}
	}
	return out
}

// defaultLayout resolves a nil layout to the record's AoS layout and
// validates layout/record agreement.
func defaultLayout(w Workload, l *prog.PhysLayout) (*prog.PhysLayout, error) {
	rec := w.Record()
	if rec == nil {
		if l != nil {
			return nil, fmt.Errorf("workload %s has no record to lay out", w.Name())
		}
		return nil, nil
	}
	if l == nil {
		return prog.AoS(rec), nil
	}
	if l.Record.Name != rec.Name {
		return nil, fmt.Errorf("workload %s: layout is for record %s", w.Name(), l.Record.Name)
	}
	return l, nil
}

// seqPhase is the single-thread phase helper.
func seqPhase(fn int) []Phase {
	return []Phase{{vm.ThreadSpec{Fn: fn}}}
}

// parallelPhases is an init phase on thread 0 followed by a worker phase
// with one thread per core, each receiving its thread index in Arg0 and
// the thread count in Arg1.
func parallelPhases(initFn, workerFn, threads int) []Phase {
	workers := make(Phase, 0, threads)
	for t := 0; t < threads; t++ {
		workers = append(workers, vm.ThreadSpec{
			Fn:   workerFn,
			Args: []int64{int64(t), int64(threads)},
			Core: t,
		})
	}
	return []Phase{{vm.ThreadSpec{Fn: initFn}}, workers}
}
