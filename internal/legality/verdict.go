package legality

// verdict.go turns collected footprints into per-object verdicts: each
// attributed access's offset class (c + m·Z, size bytes) is intersected
// with the record layout to find the fields it can touch; single-field
// accesses leave an object SplitSafe, multi-field footprints produce
// keep-together pairs, and escapes/unattributable accesses freeze.

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/prog"
	"repro/internal/stride"
)

// fieldIdxAt returns the index of the field covering byte `off`, or -1
// for padding / out of range.
func fieldIdxAt(st *prog.StructType, off int) int {
	for i := range st.Fields {
		f := &st.Fields[i]
		if off >= f.Offset && off < f.Offset+f.Size {
			return i
		}
	}
	return -1
}

// footMask maps one footprint contribution onto the record layout.
// Offsets from the object base are c + m·Z; reduced mod the element size
// S they form the residue class c mod gcd(m, S). Every start in that
// class contributes the fields under its [start, start+size) byte span
// (wrapping into the next element). spanning reports a single access
// covering several fields; allOffsets reports a class that degenerates to
// every byte of the element.
func footMask(st *prog.StructType, r resid, size uint8) (mask uint64, spanning, allOffsets bool) {
	s := uint64(st.Size)
	if s == 0 {
		return 0, false, true
	}
	var d uint64
	if r.m == 0 {
		d = s // a single start: c mod S
	} else {
		d = stride.GCD(r.m, s)
	}
	if d == 1 {
		return 0, false, true
	}
	for o := umod64(r.c, d); o < s; o += d {
		var span uint64
		for j := uint64(0); j < uint64(size); j++ {
			if fi := fieldIdxAt(st, int((o+j)%s)); fi >= 0 {
				span |= 1 << uint(fi)
			}
		}
		if bits.OnesCount64(span) > 1 {
			spanning = true
		}
		mask |= span
	}
	return mask, spanning, false
}

// buildVerdicts assembles the per-object verdicts from the collector.
func (a *Analysis) buildVerdicts(col *collector) {
	for id := range a.objs {
		oi := &a.objs[id]
		if oi.st == nil || len(oi.st.Fields) == 0 {
			continue
		}
		v := &ObjectVerdict{
			GlobalIx: oi.global, AllocIP: oi.allocIP,
			Name: oi.name, TypeID: oi.typeID, Type: oi.st,
		}
		a.verdictOf[id] = v
		a.Objects = append(a.Objects, v)
	}

	// Footprints, in IP order for stable reason ordering.
	ips := make([]uint64, 0, len(col.attrs))
	for ip := range col.attrs {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, ip := range ips {
		ia := col.attrs[ip]
		ids := make([]int, 0, len(ia.objs))
		for id := range ia.objs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			oa := ia.objs[id]
			v := a.verdictOf[id]
			if v == nil {
				continue // untyped object: no field claims to make
			}
			v.Streams++
			st := v.Type
			if oa.all || len(st.Fields) > 64 {
				oa.maskAll = true
				continue // frozen via the matching freeze event
			}
			var mask uint64
			spanning, allOff := false, false
			for _, r := range oa.residues {
				mk, sp, ao := footMask(st, r, ia.size)
				mask |= mk
				spanning = spanning || sp
				allOff = allOff || ao
			}
			oa.mask = mask
			if allOff {
				oa.maskAll = true
				v.AllFields = true
				v.Reasons = append(v.Reasons, Reason{
					Field: -1, Other: -1, FnID: ia.fnID, IP: ip, Where: a.where(ip),
					Msg: "access offset is unbounded within the element; every field is reachable",
				})
				continue
			}
			if bits.OnesCount64(mask) > 1 {
				why := "a stride residue reaches both"
				if spanning {
					why = fmt.Sprintf("a single %d-byte access spans", ia.size)
				}
				fs := bitIndices(mask)
				for i := 0; i < len(fs); i++ {
					for j := i + 1; j < len(fs); j++ {
						v.Pairs = append(v.Pairs, [2]int{fs[i], fs[j]})
						v.Reasons = append(v.Reasons, Reason{
							Field: fs[i], Other: fs[j], FnID: ia.fnID, IP: ip, Where: a.where(ip),
							Msg: fmt.Sprintf("%s %s and %s", why,
								st.Fields[fs[i]].Name, st.Fields[fs[j]].Name),
						})
					}
				}
			}
		}
	}

	// Escapes and opaque flows.
	frozen := make(map[int]bool)
	for _, ev := range col.freezes {
		ev.objs.each(func(id int) {
			v := a.verdictOf[id]
			if v == nil {
				return
			}
			frozen[id] = true
			v.Reasons = append(v.Reasons, Reason{
				Field: -1, Other: -1, FnID: ev.fnID, IP: ev.ip,
				Where: a.where(ev.ip), Msg: ev.msg,
			})
		})
	}

	// Program-level demotions freeze everything.
	sort.Slice(col.demoted, func(i, j int) bool {
		if col.demoted[i].FnID != col.demoted[j].FnID {
			return col.demoted[i].FnID < col.demoted[j].FnID
		}
		return col.demoted[i].IP < col.demoted[j].IP
	})
	for i := range col.demoted {
		if col.demoted[i].IP != 0 {
			col.demoted[i].Where = a.where(col.demoted[i].IP)
		}
	}
	a.Demoted = col.demoted
	if len(a.Demoted) > 0 {
		for id, v := range a.verdictOf {
			frozen[id] = true
			v.Reasons = append(v.Reasons, Reason{
				Field: -1, Other: -1, FnID: a.Demoted[0].FnID, IP: a.Demoted[0].IP,
				Where: a.Demoted[0].Where,
				Msg:   fmt.Sprintf("program-level demotion: %s", a.Demoted[0].Msg),
			})
		}
	}

	// Finalize: dedup pairs, order reasons, assign verdicts.
	for id, v := range a.verdictOf {
		v.Pairs = dedupPairs(v.Pairs)
		sort.SliceStable(v.Reasons, func(i, j int) bool {
			ri, rj := v.Reasons[i], v.Reasons[j]
			if ri.Field != rj.Field {
				return ri.Field < rj.Field
			}
			if ri.Other != rj.Other {
				return ri.Other < rj.Other
			}
			if ri.FnID != rj.FnID {
				return ri.FnID < rj.FnID
			}
			if ri.IP != rj.IP {
				return ri.IP < rj.IP
			}
			return ri.Msg < rj.Msg
		})
		// Same-line duplicates (e.g. two Xors of one source statement)
		// render identically; keep the first.
		kept := v.Reasons[:0]
		for _, r := range v.Reasons {
			dup := false
			for _, k := range kept {
				if k.Field == r.Field && k.Other == r.Other && k.Where == r.Where && k.Msg == r.Msg {
					dup = true
					break
				}
			}
			if !dup {
				kept = append(kept, r)
			}
		}
		v.Reasons = kept
		switch {
		case frozen[id]:
			v.Verdict = Frozen
		case v.AllFields || len(v.Pairs) > 0:
			v.Verdict = KeepTogether
		default:
			v.Verdict = SplitSafe
		}
	}
}

func bitIndices(mask uint64) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for mask != 0 {
		out = append(out, bits.TrailingZeros64(mask))
		mask &= mask - 1
	}
	return out
}

func dedupPairs(ps [][2]int) [][2]int {
	if len(ps) == 0 {
		return nil
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
	out := ps[:1]
	for _, p := range ps[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}
