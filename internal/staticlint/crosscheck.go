package staticlint

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/stride"
)

// crosscheck.go validates the static predictions against a dynamic
// profile, stream by stream. For every stream the static analyzer marks
// exact, three invariants must hold against the dynamic GCD recovery
// (paper Eqs. 2–6):
//
//  1. stride: every dynamic address delta is an integer combination of
//     the loop-counter coefficients, so the dynamic GCD must be a
//     multiple of the static stride (and 0 when the static stride is 0);
//  2. size: the Eq. 5 GCD vote over the same evidence must agree — the
//     static size vote is restricted to the streams that actually voted
//     dynamically, since the sampler never sees streams with too few
//     accesses while the static pass sees all code (on full coverage the
//     two sets coincide and this is plain equality);
//  3. offset: every coefficient of an exact stream's address is a
//     multiple of its stride, so whenever the stride is a multiple of
//     the dynamically recovered size, the stream's addresses are fixed
//     modulo that size and the dynamic field offset
//     (FirstEA − objectBase) mod size must equal the static Disp mod size.
//
// Violations on exact streams are hard mismatches — one side of the
// tool is wrong. Hint streams (known stride shape, unknown base) get the
// divisibility check as a soft warning only.

// CheckStatus classifies one stream comparison.
type CheckStatus uint8

// Check statuses.
const (
	// CheckOK: all applicable invariants held.
	CheckOK CheckStatus = iota
	// CheckMismatch: a hard invariant failed on an exact stream.
	CheckMismatch
	// CheckWarning: a soft invariant failed on a hint stream.
	CheckWarning
	// CheckStaticOnly: the static side predicts, but the profile has no
	// samples for the stream (dead or unsampled code) — informational.
	CheckStaticOnly
	// CheckDynamicOnly: the profile has the stream but the static side is
	// unresolved — the sampling profiler's coverage advantage.
	CheckDynamicOnly
)

func (s CheckStatus) String() string {
	switch s {
	case CheckOK:
		return "ok"
	case CheckMismatch:
		return "MISMATCH"
	case CheckWarning:
		return "warning"
	case CheckStaticOnly:
		return "static-only"
	case CheckDynamicOnly:
		return "dynamic-only"
	}
	return "?"
}

// StreamCheck is the comparison result for one (instruction, data
// structure) stream.
type StreamCheck struct {
	IP       uint64
	Where    string
	Identity uint64
	ObjName  string

	Static *StreamPred

	// Dynamic side, merged across calling contexts and threads.
	DynCount  uint64
	DynGCD    uint64
	DynSize   uint64 // Eq. 5 result for the stream's identity
	DynOffset uint64 // Eq. 6 result, UnknownOffset when unresolved

	Status CheckStatus
	Detail string
}

// UnknownOffset mirrors core.UnknownOffset for unresolved dynamic offsets.
const UnknownOffset = ^uint64(0)

// CrossReport is the full static-vs-dynamic validation of one run.
type CrossReport struct {
	Program string
	Checks  []StreamCheck

	// Stream confidence census over the whole binary.
	NumExact, NumHint, NumUnresolved int

	OK, Mismatches, Warnings, StaticOnly, DynamicOnly int

	// Reuse holds the static-vs-dynamic reuse validation when FoldReuse
	// was called (nil otherwise).
	Reuse *ReuseReport
}

// Failed reports whether any hard invariant was violated.
func (r *CrossReport) Failed() bool { return r.Mismatches > 0 }

// FoldReuse merges a reuse-verification report into the cross-check: a
// diverging exact-tier reuse claim is as hard a failure as a diverging
// stride claim, so every reuse failure counts as a mismatch.
func (r *CrossReport) FoldReuse(rr *ReuseReport) {
	if rr == nil {
		return
	}
	r.Reuse = rr
	r.Mismatches += rr.Failures
	if rr.Stray > 0 || len(rr.Unexecuted) > 0 {
		r.Warnings++
	}
}

// mergedStream is one dynamic stream folded over calling contexts: GCD of
// the per-context GCDs (exactly how MergeThreadProfiles folds threads),
// plus every context's first-sample anchor for the offset check.
type mergedStream struct {
	count   uint64
	gcd     uint64
	anchors []anchor
}

type anchor struct {
	ctx     uint64
	firstEA uint64
	objID   int32
}

// CrossCheck compares an analysis against a merged profile of the same
// program. minSamples is the Eq. 5 voting threshold; 0 uses the dynamic
// analyzer's, core.MinStreamSamples.
func CrossCheck(a *Analysis, p *profile.Profile, minSamples uint64) *CrossReport {
	if minSamples == 0 {
		minSamples = core.MinStreamSamples
	}
	rep := &CrossReport{Program: a.Program.Name}
	for _, sp := range a.Streams {
		switch sp.Confidence {
		case Exact:
			rep.NumExact++
		case Hint:
			rep.NumHint++
		default:
			rep.NumUnresolved++
		}
	}

	objByID := make(map[int32]*profile.ObjInfo, len(p.Objects))
	identName := make(map[uint64]string)
	globalIdent := make(map[string]uint64)   // static symbol name → identity
	allocIdents := make(map[uint64][]uint64) // alloc IP → identities (per call path)
	for i := range p.Objects {
		oi := &p.Objects[i]
		objByID[oi.ID] = oi
		identName[oi.Identity] = oi.Name
		if !oi.Heap {
			globalIdent[oi.Name] = oi.Identity
		} else {
			ids := allocIdents[oi.AllocIP]
			seen := false
			for _, id := range ids {
				if id == oi.Identity {
					seen = true
					break
				}
			}
			if !seen {
				allocIdents[oi.AllocIP] = append(ids, oi.Identity)
			}
		}
	}

	// Fold the profile's context-sensitive streams down to (IP, identity)
	// and collect the per-identity size votes exactly as core.Analyze does.
	type dynKey struct {
		ip       uint64
		identity uint64
	}
	dyn := make(map[dynKey]*mergedStream)
	votes := make(map[uint64][]uint64)
	voters := make(map[uint64][]dynKey) // identity → dynamically voting streams
	for key, stat := range p.Streams {
		dk := dynKey{ip: key.IP, identity: key.Identity}
		ms := dyn[dk]
		if ms == nil {
			ms = &mergedStream{}
			dyn[dk] = ms
		}
		ms.count += stat.Count
		ms.gcd = stride.GCD(ms.gcd, stat.GCD)
		ms.anchors = append(ms.anchors, anchor{ctx: key.Ctx, firstEA: stat.FirstEA, objID: stat.FirstObjID})
		if stat.Count >= minSamples && stat.GCD >= stride.MinMeaningfulStride {
			votes[key.Identity] = append(votes[key.Identity], stat.GCD)
			voters[key.Identity] = append(voters[key.Identity], dk)
		}
	}
	dynSize := make(map[uint64]uint64, len(votes))
	for ident, vs := range votes {
		dynSize[ident] = stride.StructSize(vs)
	}

	// identitiesOf maps a static base to the dynamic identities it covers.
	identitiesOf := func(b baseRef) []uint64 {
		switch b.Kind {
		case baseGlobal:
			if b.Global >= 0 && b.Global < len(a.Program.Globals) {
				if id, ok := globalIdent[a.Program.Globals[b.Global].Name]; ok {
					return []uint64{id}
				}
			}
		case baseAlloc:
			return allocIdents[b.AllocIP]
		}
		return nil
	}

	// The evidence-matched static size vote: for each identity, fold the
	// static strides of exactly the streams that voted dynamically. The
	// equality check only applies when every dynamic voter is covered by
	// an exact static stream — otherwise the two sides genuinely used
	// different evidence and only divisibility is meaningful.
	exactAt := make(map[dynKey]*StreamPred)
	for _, sp := range a.Streams {
		if sp.Confidence != Exact {
			continue
		}
		for _, ident := range identitiesOf(sp.Base) {
			exactAt[dynKey{ip: sp.IP, identity: ident}] = sp
		}
	}
	cmpSize := make(map[uint64]uint64)
	covered := make(map[uint64]bool)
	for ident, dks := range voters {
		all := true
		var strides []uint64
		for _, dk := range dks {
			sp := exactAt[dk]
			if sp == nil {
				all = false
				break
			}
			strides = append(strides, sp.Stride)
		}
		if all {
			covered[ident] = true
			cmpSize[ident] = stride.StructSize(strides)
		}
	}

	matched := make(map[dynKey]bool)
	for _, sp := range a.Streams {
		if sp.Confidence != Exact {
			continue
		}
		idents := identitiesOf(sp.Base)
		if len(idents) == 0 {
			rep.Checks = append(rep.Checks, StreamCheck{
				IP: sp.IP, Where: sp.Where, Static: sp,
				Status: CheckStaticOnly,
				Detail: "no dynamic object for the predicted base",
			})
			continue
		}
		for _, ident := range idents {
			sc := StreamCheck{
				IP: sp.IP, Where: sp.Where, Identity: ident,
				ObjName: identName[ident], Static: sp, DynOffset: UnknownOffset,
			}
			ms := dyn[dynKey{ip: sp.IP, identity: ident}]
			if ms == nil {
				sc.Status = CheckStaticOnly
				sc.Detail = "stream never sampled"
				rep.Checks = append(rep.Checks, sc)
				continue
			}
			matched[dynKey{ip: sp.IP, identity: ident}] = true
			sc.DynCount = ms.count
			sc.DynGCD = ms.gcd
			sc.DynSize = dynSize[ident]
			checkExact(&sc, ms, objByID, cmpSize[ident], covered[ident])
			rep.Checks = append(rep.Checks, sc)
		}
	}

	// Hint streams: soft divisibility check against every dynamic stream
	// at the same IP. Unresolved streams with dynamic data are counted as
	// dynamic-only coverage.
	byIP := make(map[uint64][]dynKey)
	for dk := range dyn {
		byIP[dk.ip] = append(byIP[dk.ip], dk)
	}
	for _, sp := range a.Streams {
		if sp.Confidence == Exact {
			continue
		}
		for _, dk := range byIP[sp.IP] {
			if matched[dk] {
				continue
			}
			ms := dyn[dk]
			sc := StreamCheck{
				IP: sp.IP, Where: sp.Where, Identity: dk.identity,
				ObjName: identName[dk.identity], Static: sp,
				DynCount: ms.count, DynGCD: ms.gcd, DynSize: dynSize[dk.identity],
				DynOffset: UnknownOffset,
			}
			if sp.Confidence == Hint && sp.Stride > 0 && ms.count >= minSamples && ms.gcd%sp.Stride != 0 {
				sc.Status = CheckWarning
				sc.Detail = fmt.Sprintf("dynamic GCD %d not a multiple of hinted stride %d", ms.gcd, sp.Stride)
			} else if sp.Confidence == Hint {
				sc.Status = CheckOK
			} else {
				sc.Status = CheckDynamicOnly
				sc.Detail = sp.Reason
			}
			rep.Checks = append(rep.Checks, sc)
		}
	}

	sort.Slice(rep.Checks, func(i, j int) bool {
		if rep.Checks[i].IP != rep.Checks[j].IP {
			return rep.Checks[i].IP < rep.Checks[j].IP
		}
		return rep.Checks[i].Identity < rep.Checks[j].Identity
	})
	for i := range rep.Checks {
		switch rep.Checks[i].Status {
		case CheckOK:
			rep.OK++
		case CheckMismatch:
			rep.Mismatches++
		case CheckWarning:
			rep.Warnings++
		case CheckStaticOnly:
			rep.StaticOnly++
		case CheckDynamicOnly:
			rep.DynamicOnly++
		}
	}
	return rep
}

// checkExact applies the three hard invariants to one exact stream.
// cmpSize is the evidence-matched static size vote for the stream's
// identity, valid only when covered is true.
func checkExact(sc *StreamCheck, ms *mergedStream, objByID map[int32]*profile.ObjInfo, cmpSize uint64, covered bool) {
	sp := sc.Static
	// 1. Stride divisibility.
	if sp.Stride == 0 {
		if ms.gcd != 0 {
			sc.Status = CheckMismatch
			sc.Detail = fmt.Sprintf("static stride 0 (loop-invariant) but dynamic GCD %d", ms.gcd)
			return
		}
	} else if ms.gcd%sp.Stride != 0 {
		sc.Status = CheckMismatch
		sc.Detail = fmt.Sprintf("dynamic GCD %d not a multiple of static stride %d", ms.gcd, sp.Stride)
		return
	}
	// 2. Structure size (Eq. 5) over matched evidence.
	if covered && cmpSize > 0 && sc.DynSize > 0 && cmpSize != sc.DynSize {
		sc.Status = CheckMismatch
		sc.Detail = fmt.Sprintf("static size %d != dynamic size %d", cmpSize, sc.DynSize)
		return
	}
	// 3. Field offset (Eq. 6): valid whenever this stream's addresses are
	// congruent modulo the dynamically recovered size, i.e. its stride is
	// a multiple of it. Checked against every calling context's
	// first-sample anchor.
	if sc.DynSize > 0 && sp.Stride%sc.DynSize == 0 {
		staticOff := umod(sp.Disp, sc.DynSize)
		for _, an := range ms.anchors {
			obj := objByID[an.objID]
			if obj == nil {
				continue
			}
			dynOff := stride.Offset(an.firstEA, obj.Base, sc.DynSize)
			if sc.DynOffset == UnknownOffset {
				sc.DynOffset = dynOff
			}
			if dynOff != staticOff {
				sc.Status = CheckMismatch
				sc.Detail = fmt.Sprintf("static offset %d != dynamic offset %d (size %d, ctx %#x)",
					staticOff, dynOff, sc.DynSize, an.ctx)
				return
			}
		}
	}
	sc.Status = CheckOK
}
