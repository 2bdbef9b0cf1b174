package staticlint

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/reuse"
)

// reuse.go is the static reuse-distance predictor: for every loop nest
// whose streams are all exact tier (known base, stride, offset, and trip
// counts — what plan.go recovers), it derives the nest's reuse-distance
// histogram and per-level miss ratios without running the program,
// following the closed-form construction of static reuse-profile
// estimation (arXiv:2411.13854, arXiv:2509.18684) over the paper's
// Eqs. 2–7 machinery.
//
// The derivation walks the nest's access schedule symbolically — the
// program-order interleaving of its streams across the iteration space —
// and feeds line addresses through the exact Bennett–Kruskal analyzer
// (internal/reuse). Self-reuse (stride vs. line size), group reuse
// (streams touching the same lines of one object), and loop-carried
// reuse (re-touches across enclosing-loop iterations) all fall out of
// the schedule; no approximation is involved. For speed the walk
// detects, per outer-loop iteration, a steady-state period in the
// histogram deltas and extrapolates the remaining iterations in closed
// form — scans reach their steady state within a few iterations, so the
// cost is proportional to the nest's *pattern*, not its trip count.
// Histogram mass is conserved exactly: buckets + cold == accesses.
//
// A prediction's unit is one execution of the nest from cold: first
// touches within the nest count as cold misses. The dynamic twin
// (reuseverify.go) segments the VM's event stream the same way, so the
// two sides are comparable bucket by bucket.

// ReuseHist is a value-type reuse-distance histogram: Buckets[k] counts
// distances in [2^k, 2^(k+1)) (Buckets[0] counts 0 and 1), Cold counts
// first touches, N all accesses.
type ReuseHist struct {
	Buckets [64]uint64
	Cold    uint64
	N       uint64
}

func (h *ReuseHist) add(dist uint64) {
	h.N++
	if dist == reuse.Infinite {
		h.Cold++
		return
	}
	b := 0
	for d := dist; d > 1; d >>= 1 {
		b++
	}
	h.Buckets[b]++
}

// Merge folds another histogram into this one.
func (h *ReuseHist) Merge(o ReuseHist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Cold += o.Cold
	h.N += o.N
}

// Mass returns buckets + cold, which must equal N.
func (h ReuseHist) Mass() uint64 {
	m := h.Cold
	for _, b := range h.Buckets {
		m += b
	}
	return m
}

// LevelCap is one simulated cache level expressed in lines.
type LevelCap struct {
	Name    string
	Lines   uint64
	Latency int
}

// ObjectReuse attributes a nest's accesses to one base object.
type ObjectReuse struct {
	GlobalIx int
	Name     string
	Hist     ReuseHist
	// Misses[l] counts accesses whose exact reuse distance reaches past
	// level l's capacity (cold included).
	Misses []uint64
}

// LoopReuse attributes a nest's accesses to one member loop (innermost
// attribution).
type LoopReuse struct {
	Key    uint64
	Info   *cfg.LoopInfo
	Hist   ReuseHist
	Misses []uint64
}

// NestPrediction is the static reuse profile of one outermost loop nest.
type NestPrediction struct {
	Key  uint64
	Info *cfg.LoopInfo
	FnID int

	// Trips is the outer loop's iteration count; Accesses the total
	// memory accesses of one nest execution.
	Trips    int64
	Accesses uint64

	Total ReuseHist
	// Misses[l] is the predicted miss count at hierarchy level l (0-based
	// over ReusePrediction.Levels), from exact distances (not buckets).
	Misses []uint64

	// IPs lists the memory-instruction addresses belonging to this nest;
	// the dynamic verifier segments the VM's event stream by them.
	IPs []uint64

	Objects []ObjectReuse
	Loops   []LoopReuse

	// Extrapolated reports that a steady-state period was found and the
	// tail extrapolated; SimulatedIters is how many outer iterations were
	// walked explicitly.
	Extrapolated   bool
	SimulatedIters int64
	Period         int64
}

// MissRatio returns the predicted miss ratio at level l.
func (np *NestPrediction) MissRatio(l int) float64 {
	if np.Accesses == 0 || l >= len(np.Misses) {
		return 0
	}
	return float64(np.Misses[l]) / float64(np.Accesses)
}

// SkippedNest records a loop nest the predictor could not claim, with the
// demotion reason — the static analog of a stream's Unresolved tier.
type SkippedNest struct {
	Key    uint64
	Info   *cfg.LoopInfo
	FnID   int
	Reason string
}

// ReusePrediction is the whole-program static reuse analysis PredictReuse
// returns.
type ReusePrediction struct {
	Program  string
	LineSize uint64
	Levels   []LevelCap

	Nests   []*NestPrediction
	Skipped []SkippedNest
}

// maxSimObservations bounds the explicit walk per nest; nests that reach
// the budget without a steady-state period are skipped rather than
// mispredicted.
const maxSimObservations = 32 << 20

// steadyBlocks is how many consecutive identical period blocks confirm a
// steady state before extrapolating.
const steadyBlocks = 3

// minSteadyWindow is the minimum number of trailing outer iterations a
// candidate period must explain before it is trusted: a short period must
// repeat across a long window, or a longer true period (a strided scan
// crosses a line boundary only every lineSize/stride iterations) would be
// shadowed by its constant prefix.
const minSteadyWindow = 64

// maxPeriod bounds the steady-state period search (in outer iterations).
const maxPeriod = 64

// PredictReuse runs the static reuse predictor over every outermost loop
// nest of the program against the given hierarchy. It plans each nest
// from the dataflow AnalyzeProgram already solved.
func PredictReuse(a *Analysis, cacheCfg cache.Config) *ReusePrediction {
	rp := &ReusePrediction{
		Program:  a.Program.Name,
		LineSize: uint64(cacheCfg.LineSize),
	}
	for _, lv := range cacheCfg.Levels {
		rp.Levels = append(rp.Levels, LevelCap{
			Name:    lv.Name,
			Lines:   uint64(lv.Size) / uint64(cacheCfg.LineSize),
			Latency: lv.Latency,
		})
	}
	bases := GlobalBases(a.Program)

	for _, fa := range a.funcs {
		f := fa.f
		for lid, l := range fa.forest.Loops {
			if l.Parent != -1 {
				continue // only outermost nests
			}
			key := cfg.LoopKey(f.ID, l.Header)
			info := a.Loops.Info(key)
			if !fa.converged {
				rp.Skipped = append(rp.Skipped, SkippedNest{Key: key, Info: info, FnID: f.ID, Reason: "dataflow did not converge"})
				continue
			}
			pl := &planner{a: a, fa: fa, visited: make(map[int]bool)}
			lp, err := pl.planLoop(lid)
			if err != nil {
				rp.Skipped = append(rp.Skipped, SkippedNest{Key: key, Info: info, FnID: f.ID, Reason: err.Error()})
				continue
			}
			np, err := simulateNest(a, lp, bases, rp, f.ID)
			if err != nil {
				rp.Skipped = append(rp.Skipped, SkippedNest{Key: key, Info: info, FnID: f.ID, Reason: err.Error()})
				continue
			}
			rp.Nests = append(rp.Nests, np)
		}
	}
	sort.Slice(rp.Nests, func(i, j int) bool { return rp.Nests[i].Key < rp.Nests[j].Key })
	sort.Slice(rp.Skipped, func(i, j int) bool { return rp.Skipped[i].Key < rp.Skipped[j].Key })
	return rp
}

// nestTally is the mutable accumulator state of one nest walk; snapshots
// of its counters form the per-iteration deltas for period detection.
type nestTally struct {
	levels []uint64 // level capacities in lines

	total  ReuseHist
	misses []uint64

	objIdx  map[int]int
	objs    []ObjectReuse
	loopIdx map[uint64]int
	loops   []LoopReuse
}

func (nt *nestTally) record(tpl *AccessTpl, dist uint64) {
	nt.total.add(dist)
	oi := nt.objIdx[tpl.GlobalIx]
	nt.objs[oi].Hist.add(dist)
	li, haveLoop := nt.loopIdx[tpl.LoopKey]
	if haveLoop {
		nt.loops[li].Hist.add(dist)
	}
	for l, capLines := range nt.levels {
		if dist == reuse.Infinite || dist >= capLines {
			nt.misses[l]++
			nt.objs[oi].Misses[l]++
			if haveLoop {
				nt.loops[li].Misses[l]++
			}
		}
	}
}

// snapshot flattens every counter into one comparable vector.
func (nt *nestTally) snapshot() []uint64 {
	out := make([]uint64, 0, 70*(1+len(nt.objs)+len(nt.loops)))
	flat := func(h *ReuseHist, m []uint64) {
		out = append(out, h.Buckets[:]...)
		out = append(out, h.Cold, h.N)
		out = append(out, m...)
	}
	flat(&nt.total, nt.misses)
	for i := range nt.objs {
		flat(&nt.objs[i].Hist, nt.objs[i].Misses)
	}
	for i := range nt.loops {
		flat(&nt.loops[i].Hist, nt.loops[i].Misses)
	}
	return out
}

// apply adds a scaled delta vector back into the counters, inverting
// snapshot's layout.
func (nt *nestTally) apply(delta []uint64, times uint64) {
	pos := 0
	take := func(h *ReuseHist, m []uint64) {
		for i := range h.Buckets {
			h.Buckets[i] += delta[pos] * times
			pos++
		}
		h.Cold += delta[pos] * times
		pos++
		h.N += delta[pos] * times
		pos++
		for i := range m {
			m[i] += delta[pos] * times
			pos++
		}
	}
	take(&nt.total, nt.misses)
	for i := range nt.objs {
		take(&nt.objs[i].Hist, nt.objs[i].Misses)
	}
	for i := range nt.loops {
		take(&nt.loops[i].Hist, nt.loops[i].Misses)
	}
}

// collectAccessInfo walks a plan subtree registering objects and loops.
func collectAccessInfo(items []PlanItem, a *Analysis, nt *nestTally) {
	for i := range items {
		switch {
		case items[i].Access != nil:
			tpl := items[i].Access
			if _, ok := nt.objIdx[tpl.GlobalIx]; !ok {
				nt.objIdx[tpl.GlobalIx] = len(nt.objs)
				name := ""
				if tpl.GlobalIx < len(a.Program.Globals) {
					name = a.Program.Globals[tpl.GlobalIx].Name
				}
				nt.objs = append(nt.objs, ObjectReuse{
					GlobalIx: tpl.GlobalIx, Name: name,
					Misses: make([]uint64, len(nt.levels)),
				})
			}
		case items[i].Loop != nil:
			lp := items[i].Loop
			if _, ok := nt.loopIdx[lp.Key]; !ok {
				nt.loopIdx[lp.Key] = len(nt.loops)
				nt.loops = append(nt.loops, LoopReuse{
					Key: lp.Key, Info: lp.Info,
					Misses: make([]uint64, len(nt.levels)),
				})
			}
			collectAccessInfo(lp.Body, a, nt)
		}
	}
}

// simulateNest walks one nest's access schedule from cold, detecting a
// steady-state period over outer iterations and extrapolating the tail.
func simulateNest(a *Analysis, lp *LoopPlan, bases []uint64, rp *ReusePrediction, fnID int) (*NestPrediction, error) {
	lineShift := uint(0)
	for sz := rp.LineSize; sz > 1; sz >>= 1 {
		lineShift++
	}
	nt := &nestTally{
		levels:  make([]uint64, len(rp.Levels)),
		misses:  make([]uint64, len(rp.Levels)),
		objIdx:  make(map[int]int),
		loopIdx: make(map[uint64]int),
	}
	for i, lv := range rp.Levels {
		nt.levels[i] = lv.Lines
	}
	// The nest loop itself is attributed like its members.
	nt.loopIdx[lp.Key] = 0
	nt.loops = append(nt.loops, LoopReuse{Key: lp.Key, Info: lp.Info, Misses: make([]uint64, len(rp.Levels))})
	collectAccessInfo(lp.Body, a, nt)

	an := reuse.NewAnalyzer(4096)
	k := make([]int64, lp.Depth+1+maxLoopDepth(lp.Body))
	var observed uint64

	var walk func(items []PlanItem, depth int) error
	walk = func(items []PlanItem, depth int) error {
		for i := range items {
			it := &items[i]
			switch {
			case it.Access != nil:
				tpl := it.Access
				ea := uint64(int64(bases[tpl.GlobalIx]) + tpl.Disp)
				for d, c := range tpl.Coeff {
					ea += uint64(c * k[d])
				}
				nt.record(tpl, an.Observe(ea>>lineShift))
				observed++
				if observed > maxSimObservations {
					return errBudget
				}
			case it.Loop != nil:
				for k[it.Loop.Depth] = 0; k[it.Loop.Depth] < it.Loop.Trips; k[it.Loop.Depth]++ {
					if err := walk(it.Loop.Body, depth+1); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	np := &NestPrediction{Key: lp.Key, Info: lp.Info, FnID: fnID, Trips: lp.Trips}

	// Outer iterations: walk explicitly, snapshot per iteration, and try
	// to confirm a steady-state period.
	prev := nt.snapshot()
	var deltas [][]uint64
	iter := int64(0)
	for ; iter < lp.Trips; iter++ {
		k[lp.Depth] = iter
		if err := walk(lp.Body, 0); err != nil {
			return nil, err
		}
		cur := nt.snapshot()
		delta := make([]uint64, len(cur))
		for i := range cur {
			delta[i] = cur[i] - prev[i]
		}
		prev = cur
		deltas = append(deltas, delta)

		if p := findPeriod(deltas); p > 0 && iter+1 < lp.Trips {
			remaining := uint64(lp.Trips - (iter + 1))
			block := deltas[len(deltas)-p:]
			full, rem := remaining/uint64(p), remaining%uint64(p)
			for _, d := range block {
				nt.apply(d, full)
			}
			for j := uint64(0); j < rem; j++ {
				nt.apply(block[j], 1)
			}
			np.Extrapolated = true
			np.Period = int64(p)
			iter++
			break
		}
	}
	np.SimulatedIters = iter

	np.Total = nt.total
	np.Misses = nt.misses
	np.Accesses = nt.total.N
	np.Objects = nt.objs
	np.Loops = nt.loops
	np.IPs = collectIPs(lp.Body, nil)
	sort.Slice(np.IPs, func(i, j int) bool { return np.IPs[i] < np.IPs[j] })
	sort.Slice(np.Objects, func(i, j int) bool { return np.Objects[i].GlobalIx < np.Objects[j].GlobalIx })
	sort.Slice(np.Loops, func(i, j int) bool { return np.Loops[i].Key < np.Loops[j].Key })
	return np, nil
}

var errBudget = fmt.Errorf("steady-state period not found within the simulation budget")

// collectIPs gathers every access IP of a plan subtree.
func collectIPs(items []PlanItem, out []uint64) []uint64 {
	for i := range items {
		switch {
		case items[i].Access != nil:
			out = append(out, items[i].Access.IP)
		case items[i].Loop != nil:
			out = collectIPs(items[i].Loop.Body, out)
		}
	}
	return out
}

// maxLoopDepth returns the deepest nested-loop Depth in a subtree,
// relative to the items' own enclosing depth.
func maxLoopDepth(items []PlanItem) int {
	d := 0
	for i := range items {
		if lp := items[i].Loop; lp != nil {
			if n := 1 + maxLoopDepth(lp.Body); n > d {
				d = n
			}
		}
	}
	return d
}

// findPeriod looks for the smallest period p whose repetition explains the
// last max(steadyBlocks, minSteadyWindow/p) blocks of iteration deltas.
func findPeriod(deltas [][]uint64) int {
	n := len(deltas)
	for p := 1; p <= maxPeriod; p++ {
		blocks := steadyBlocks
		if b := (minSteadyWindow + p - 1) / p; b > blocks {
			blocks = b
		}
		if n < p*blocks {
			continue
		}
		ok := true
		base := deltas[n-p:]
		for blk := 2; blk <= blocks && ok; blk++ {
			cmp := deltas[n-p*blk : n-p*(blk-1)]
			for i := range base {
				if !slices.Equal(base[i], cmp[i]) {
					ok = false
					break
				}
			}
		}
		if ok {
			return p
		}
	}
	return 0
}
