package legality

// summary.go bridges the pass to the profiler's report types: SummaryFor
// condenses the per-object verdicts of one structure into the
// core.LegalitySummary that the splitting machinery consults, and
// FrozenIdentities maps frozen objects back onto profile identities so
// array regrouping can skip arrays no transform may touch.

import (
	"slices"

	"repro/internal/core"
	"repro/internal/profile"
)

// matches reports whether the verdict's object belongs to the named
// structure: by struct type name, or by object symbol name.
func (v *ObjectVerdict) matches(name, typeName string) bool {
	if typeName != "" && v.Type.Name == typeName {
		return true
	}
	return name != "" && (v.Name == name || v.Type.Name == name)
}

// SummaryFor condenses the verdicts of every object of one structure
// (matched by struct type name, falling back to the display name) into a
// core.LegalitySummary: the most restrictive verdict wins, keep-together
// pairs are unioned. Returns nil when no analyzed object matches.
func SummaryFor(a *Analysis, name, typeName string) *core.LegalitySummary {
	var objs []*ObjectVerdict
	for _, v := range a.Objects {
		if v.matches(name, typeName) {
			objs = append(objs, v)
		}
	}
	if len(objs) == 0 {
		return nil
	}
	worst := SplitSafe
	for _, v := range objs {
		if v.Verdict > worst {
			worst = v.Verdict
		}
	}
	sum := &core.LegalitySummary{Verdict: worst.String()}
	if worst == SplitSafe {
		return sum
	}
	for _, v := range objs {
		sum.AllFields = sum.AllFields || v.AllFields
		sum.Pairs = append(sum.Pairs, v.PairNames()...)
		if sum.Reason == "" && v.Verdict == worst && len(v.Reasons) > 0 {
			r := v.Reasons[0]
			sum.Reason = r.Msg
			if r.Where != "" {
				sum.Reason += " (at " + r.Where + ")"
			}
		}
	}
	slices.SortFunc(sum.Pairs, comparePairs)
	sum.Pairs = slices.Compact(sum.Pairs)
	return sum
}

// FrozenIdentities maps Frozen verdicts onto profile identities: heap
// sites match by allocation IP, static objects by symbol name. The
// result feeds regroup.Options so the clustering skips frozen arrays.
func FrozenIdentities(a *Analysis, p *profile.Profile) map[uint64]bool {
	if a == nil || p == nil {
		return nil
	}
	byName := make(map[string]*ObjectVerdict)
	byAlloc := make(map[uint64]*ObjectVerdict)
	for _, v := range a.Objects {
		if v.GlobalIx >= 0 {
			byName[v.Name] = v
		} else {
			byAlloc[v.AllocIP] = v
		}
	}
	frozen := make(map[uint64]bool)
	for i := range p.Objects {
		o := &p.Objects[i]
		var v *ObjectVerdict
		if o.Heap {
			v = byAlloc[o.AllocIP]
		} else {
			v = byName[o.Name]
		}
		if v != nil && v.Verdict == Frozen {
			frozen[o.Identity] = true
		}
	}
	return frozen
}
