// Package groundtruth implements the instrumentation-based profiling
// baselines that motivate the paper. Where StructSlim samples one access
// in ten thousand, these observers see *every* access — like Pin- or
// compiler-instrumented profilers — which buys exact answers at the
// overheads the paper quotes: field-access frequency counting à la
// Chilimbi et al. [8] and ASLOP [35] at ~4×, and whole-trace reuse-
// distance collection à la Zhong et al. [38] at up to 153×.
//
// The package serves two purposes in the reproduction:
//
//   - Baseline overheads: each instrumentation kind charges a per-access
//     cost, so the harness can regenerate the paper's sampling-vs-
//     instrumentation overhead contrast as a measured experiment.
//   - Ground truth: the exact per-field latency shares and affinities let
//     the harness *quantify* how accurate StructSlim's sparse-sample
//     analysis is, instead of taking Equation 4's word for it.
package groundtruth

import (
	"fmt"

	"repro/internal/affinity"
	"repro/internal/cfg"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/reuse"
	"repro/internal/vm"
)

// Kind selects the modeled instrumentation flavour.
type Kind uint8

// Instrumentation kinds with their per-access costs (cycles, see cost).
// The costs are calibrated to land the slowdowns the paper quotes for
// each family on memory-bound code.
const (
	// KindCounting models field-access frequency counting (Chilimbi et
	// al.; ASLOP's cheaper sibling): a table increment per access.
	KindCounting Kind = iota
	// KindReuse models full reuse-distance collection (Zhong et al.):
	// an ordered-structure update per access — the paper's 153× example.
	KindReuse
)

func (k Kind) String() string {
	if k == KindReuse {
		return "reuse-distance"
	}
	return "counting"
}

// cost is the kind's instrumentation cost per access, in cycles.
func (k Kind) cost() uint64 {
	if k == KindReuse {
		return 1800
	}
	return 40
}

// Config tunes the recorder.
type Config struct {
	Kind Kind
}

// lineShift is the cache-line granularity of reuse analysis: 64-byte
// lines.
const lineShift = 6

// Recorder observes every memory access, performing exact data-centric
// attribution; it implements vm.AccessObserver.
type Recorder struct {
	cfg     Config
	space   *mem.Space
	program *prog.Program
	loops   *cfg.ProgramLoops

	totalLatency uint64
	accesses     uint64

	latency map[uint64]uint64            // identity → latency
	size    map[uint64]uint64            // identity → debug size (0 unknown)
	name    map[uint64]string            // identity → display name
	fields  map[uint64]map[uint64]uint64 // identity → offset → latency
	ab      map[uint64]*affinity.Builder // identity → loop/offset accumulator

	// Reuse is populated for KindReuse: whole-trace line reuse
	// distances.
	Reuse *reuse.Analyzer
}

// NewRecorder builds a recorder for a loaded machine's space and its
// program.
func NewRecorder(cfg Config, space *mem.Space, program *prog.Program) (*Recorder, error) {
	loops, err := cfgAnalyze(program)
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		cfg:     cfg,
		space:   space,
		program: program,
		loops:   loops,
		latency: make(map[uint64]uint64),
		size:    make(map[uint64]uint64),
		name:    make(map[uint64]string),
		fields:  make(map[uint64]map[uint64]uint64),
		ab:      make(map[uint64]*affinity.Builder),
	}
	if cfg.Kind == KindReuse {
		r.Reuse = reuse.NewAnalyzer(1 << 16)
	}
	return r, nil
}

func cfgAnalyze(p *prog.Program) (*cfg.ProgramLoops, error) {
	if p == nil {
		return nil, fmt.Errorf("nil program")
	}
	return cfg.AnalyzeLoops(p)
}

// OnAccess performs the exact attribution and charges the
// instrumentation cost.
func (r *Recorder) OnAccess(ev *vm.MemEvent) uint64 {
	r.accesses++
	r.totalLatency += uint64(ev.Latency)

	if r.Reuse != nil {
		r.Reuse.Observe(ev.EA >> lineShift)
	}

	if obj := r.space.FindObject(ev.EA); obj != nil {
		ident := obj.Identity
		r.latency[ident] += uint64(ev.Latency)
		if _, ok := r.size[ident]; !ok {
			var sz uint64
			if st := typeOf(r.program, obj); st != nil {
				sz = uint64(st.Size)
			}
			r.size[ident] = sz
			r.name[ident] = obj.Name
		}
		if sz := r.size[ident]; sz > 0 {
			off := (ev.EA - obj.Base) % sz
			fm := r.fields[ident]
			if fm == nil {
				fm = make(map[uint64]uint64)
				r.fields[ident] = fm
			}
			fm[off] += uint64(ev.Latency)

			ab := r.ab[ident]
			if ab == nil {
				ab = affinity.NewBuilder()
				r.ab[ident] = ab
			}
			affKey := ev.IP | 1<<63
			if li := r.loops.LoopOfIP(ev.IP); li != nil {
				affKey = li.Key
			}
			ab.Add(affKey, off, uint64(ev.Latency))
		}
	}
	return r.cfg.Kind.cost()
}

func typeOf(p *prog.Program, obj *mem.Object) *prog.StructType {
	if obj.TypeID >= 0 && obj.TypeID < len(p.Types) {
		return p.Types[obj.TypeID]
	}
	return nil
}

// Exact is the recorder's final, exact analysis.
type Exact struct {
	Kind          Kind
	Accesses      uint64
	TotalLatency  uint64
	PerAccessCost uint64

	// FieldShare[identity][offset] is the exact share (0..1) of the
	// identity's latency attributable to the field at offset.
	FieldShare map[uint64]map[uint64]float64
	// StructShare[identity] is the exact l_d.
	StructShare map[uint64]float64
	// Affinity[identity] is the exact Equation 7 matrix.
	Affinity map[uint64]*affinity.Matrix
	// Name[identity] is a display name.
	Name map[uint64]string
}

// Report finalizes the exact analysis.
func (r *Recorder) Report() *Exact {
	ex := &Exact{
		Kind:          r.cfg.Kind,
		Accesses:      r.accesses,
		TotalLatency:  r.totalLatency,
		PerAccessCost: r.cfg.Kind.cost(),
		FieldShare:    make(map[uint64]map[uint64]float64),
		StructShare:   make(map[uint64]float64),
		Affinity:      make(map[uint64]*affinity.Matrix),
		Name:          r.name,
	}
	for ident, lat := range r.latency {
		if r.totalLatency > 0 {
			ex.StructShare[ident] = float64(lat) / float64(r.totalLatency)
		}
		if fm := r.fields[ident]; fm != nil {
			shares := make(map[uint64]float64, len(fm))
			for off, l := range fm {
				shares[off] = float64(l) / float64(lat)
			}
			ex.FieldShare[ident] = shares
		}
		if ab := r.ab[ident]; ab != nil {
			ex.Affinity[ident] = ab.Compute()
		}
	}
	return ex
}

// OverheadFactor returns the modeled slowdown of the instrumented run:
// (app + instrumentation cycles) / app cycles, given the run's stats.
func OverheadFactor(st vm.Stats) float64 {
	if st.AppWallCycles == 0 {
		return 1
	}
	return float64(st.WallCycles) / float64(st.AppWallCycles)
}
