package sharing

import (
	"fmt"
	"math/bits"
	"sort"
)

// crosscheck.go scores the static sharing claims against a verification
// run, mirroring internal/staticlint/crosscheck.go. Every exact claim
// carries a falsifiable invariant:
//
//   - NoWrites: the phase's observed write count for the (object, field)
//     must be zero;
//   - WritesPrivate: no written address of the (object, field) may have
//     two distinct writing threads.
//
// A violation on an exact claim is a hard mismatch — one side of the
// tool is wrong. Hint claims get the same checks as soft warnings.
//
// False-sharing findings are scored the other way around: they predict
// observable coherence traffic, so the verifier looks for a cache line of
// the object that at least two distinct cores wrote and that drew
// write-invalidation traffic. A prediction backed by such a line is
// confirmed; one without is left unconfirmed (scheduling may serialize
// the writers), never a mismatch. Observed contention on an object no
// finding predicted is reported as dynamic-only coverage.

// CheckStatus classifies one claim or prediction comparison.
type CheckStatus uint8

// Check statuses.
const (
	// CheckOK: the claim's invariant was checked against the run and held.
	CheckOK CheckStatus = iota
	// CheckMismatch: a hard invariant failed on an exact claim.
	CheckMismatch
	// CheckWarning: evidence against a hint claim, or a prediction the
	// run did not reproduce.
	CheckWarning
	// CheckUnverified: the claim carries no falsifiable invariant (a
	// write-shared may-claim) or the phase was never observed.
	CheckUnverified
	// CheckDynamicOnly: observed write-write contention on an object no
	// false-sharing finding predicted.
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
	case CheckUnverified:
		return "unverified"
	case CheckDynamicOnly:
		return "dynamic-only"
	}
	return "?"
}

// ClaimCheck is the comparison result for one field claim.
type ClaimCheck struct {
	Claim  *FieldClaim
	Writes uint64 // observed writes to the claim's (object, field)
	Status CheckStatus
	Detail string
}

// PredCheck is the verification result for one false-sharing finding.
type PredCheck struct {
	Pred      *FalseShare
	Confirmed bool
	// Line is the lowest contended line tag and Cores the mask of cores
	// observed writing it (valid when Confirmed).
	Line   uint64
	Cores  uint64
	Status CheckStatus
	Detail string
}

// Report is the full static-vs-coherence validation of one run.
type Report struct {
	Program string

	Claims []ClaimCheck
	Preds  []PredCheck
	// Extra carries dynamic-only contention sites, formatted.
	Extra []string

	OK, Mismatches, Warnings, Unverified, DynamicOnly int
	Confirmed, Unconfirmed                            int
}

// Failed reports whether any hard invariant was violated.
func (r *Report) Failed() bool { return r.Mismatches > 0 }

// CrossCheck scores an analysis against the observations of a
// verification run of the same program and phase list.
func CrossCheck(a *Analysis, obs *RunObs) *Report {
	rep := &Report{Program: a.Program.Name}

	for _, c := range a.Claims {
		cc := ClaimCheck{Claim: c}
		po := obs.PhaseAt(c.Role.Phase)
		switch {
		case po == nil || !po.HasRoles:
			cc.Status = CheckUnverified
			cc.Detail = "phase not observed"
		case c.NoWrites:
			cc.Writes = po.WritesTo(c.Global, c.Field)
			if cc.Writes == 0 {
				cc.Status = CheckOK
			} else {
				cc.Status = hardness(c)
				cc.Detail = fmt.Sprintf("claimed no writes, observed %d", cc.Writes)
			}
		case c.WritesPrivate:
			cc.Writes = po.WritesTo(c.Global, c.Field)
			if multi := po.MultiWriterAddrs(c.Global, c.Field); len(multi) > 0 {
				cc.Status = hardness(c)
				cc.Detail = fmt.Sprintf("claimed single-writer addresses, %d address(es) written by several threads (first %#x)",
					len(multi), multi[0])
			} else if cc.Writes == 0 {
				cc.Status = CheckUnverified
				cc.Detail = "no write to the object was observed"
			} else {
				cc.Status = CheckOK
			}
		default:
			cc.Status = CheckUnverified
			if c.Class == ClassWriteShared {
				cc.Detail = "may-claim: overlapping writes are permitted, nothing to falsify"
			} else {
				cc.Detail = "no checkable invariant"
			}
		}
		rep.Claims = append(rep.Claims, cc)
	}

	// predicted[global] = field set with a false-sharing finding, for the
	// dynamic-only sweep below.
	predicted := make(map[int]map[int]bool)
	for _, fs := range a.FalseShares {
		pc := PredCheck{Pred: fs}
		po := obs.PhaseAt(fs.Role.Phase)
		if predicted[fs.Global] == nil {
			predicted[fs.Global] = make(map[int]bool)
		}
		for _, c := range fs.Fields {
			predicted[fs.Global][c.Field] = true
			if po == nil {
				continue
			}
			if tag, mask, ok := po.ContendedLine(c.Global, c.Field); ok && (!pc.Confirmed || tag < pc.Line) {
				pc.Confirmed = true
				pc.Line, pc.Cores = tag, mask
			}
		}
		if pc.Confirmed {
			pc.Status = CheckOK
			pc.Detail = fmt.Sprintf("line %#x written by %d cores and write-invalidated", pc.Line, bits.OnesCount64(pc.Cores))
		} else {
			pc.Status = CheckWarning
			pc.Detail = "no contended line observed (writers may have serialized)"
		}
		rep.Preds = append(rep.Preds, pc)
	}

	// Dynamic-only contention: lines invalidated by two or more cores on
	// objects no finding predicted — the coherence observer's coverage
	// advantage over the static pass.
	seen := make(map[gfKey]bool)
	for _, po := range obs.Phases {
		var keys []lineKey
		for lk, mask := range po.LineCauses {
			if bits.OnesCount64(mask) >= 2 && !predicted[lk.global][lk.field] && !predicted[lk.global][-1] {
				keys = append(keys, lk)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].global != keys[j].global {
				return keys[i].global < keys[j].global
			}
			if keys[i].field != keys[j].field {
				return keys[i].field < keys[j].field
			}
			return keys[i].tag < keys[j].tag
		})
		for _, lk := range keys {
			k := gfKey{lk.global, lk.field}
			if seen[k] {
				continue
			}
			seen[k] = true
			rep.Extra = append(rep.Extra, fmt.Sprintf(
				"phase %d: %s %s line %#x write-invalidated by %d cores, not predicted",
				po.Phase, a.Program.Globals[lk.global].Name,
				fieldNameOf(a.Program, lk.global, lk.field), lk.tag, bits.OnesCount64(po.LineCauses[lk])))
		}
	}

	for i := range rep.Claims {
		switch rep.Claims[i].Status {
		case CheckOK:
			rep.OK++
		case CheckMismatch:
			rep.Mismatches++
		case CheckWarning:
			rep.Warnings++
		case CheckUnverified:
			rep.Unverified++
		}
	}
	for i := range rep.Preds {
		if rep.Preds[i].Confirmed {
			rep.Confirmed++
		} else {
			rep.Unconfirmed++
		}
	}
	rep.DynamicOnly = len(rep.Extra)
	return rep
}

// hardness grades a failed invariant: hard on exact claims, soft on
// hints (whose exactness was already demoted for a stated reason).
func hardness(c *FieldClaim) CheckStatus {
	if c.Conf == Exact {
		return CheckMismatch
	}
	return CheckWarning
}
