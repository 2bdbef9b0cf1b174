package sharing

import (
	"fmt"
	"io"
)

// RenderText writes the sharing classification, the false-sharing
// findings, and the keep-apart advice in the same plain style as the
// staticlint and core reports.
func (a *Analysis) RenderText(w io.Writer) {
	fmt.Fprintf(w, "Sharing analysis for %s (line size %d):\n", a.Program.Name, a.LineSize)
	if len(a.Roles) == 0 {
		fmt.Fprintf(w, "  no thread roles: no phase runs two threads of one function\n\n")
		return
	}
	nExact, nHint := 0, 0
	for _, c := range a.Claims {
		if c.Conf == Exact {
			nExact++
		} else {
			nHint++
		}
	}
	fmt.Fprintf(w, "  roles: %d, claims: %d exact / %d hint\n", len(a.Roles), nExact, nHint)
	for _, role := range a.Roles {
		if role.Unanalyzed {
			fmt.Fprintf(w, "  %s: WARNING: dataflow did not converge\n", role.Name())
			continue
		}
		fmt.Fprintf(w, "  %s (unattributed: %d reads / %d writes):\n",
			role.Name(), a.UnattributedReads[role], a.UnattributedWrites[role])
		for _, c := range a.Claims {
			if c.Role != role {
				continue
			}
			extra := ""
			if c.WritesPrivate {
				extra = fmt.Sprintf("  write t-stride=%d off=%d", c.WriteTidStride, c.WriteOffset)
			}
			reason := ""
			if c.Conf != Exact && c.Reason != "" {
				reason = fmt.Sprintf("  (%s)", c.Reason)
			}
			fmt.Fprintf(w, "    %-20s %-16s %-14s %-5s %dw/%dr%s%s\n",
				c.ObjName, c.FieldName, c.Class, c.Conf,
				c.NumWriteStreams, c.NumReadStreams, extra, reason)
		}
	}
	fmt.Fprintln(w)

	if len(a.FalseShares) == 0 {
		fmt.Fprintf(w, "False sharing: no predictions\n\n")
	} else {
		fmt.Fprintf(w, "False sharing (%d prediction(s)):\n", len(a.FalseShares))
		for _, fs := range a.FalseShares {
			obj := fs.ObjName
			if fs.Struct != "" {
				obj = fmt.Sprintf("%s (struct %s)", fs.ObjName, fs.Struct)
			}
			fmt.Fprintf(w, "  FALSE-SHARING %s under %s: per-thread write stride %d < line %d\n",
				obj, fs.Role.Name(), fs.Stride, fs.LineSize)
			for _, e := range fs.Edges {
				fmt.Fprintf(w, "    keep-apart: %s@%d -- %s@%d\n", e.NameA, e.OffA, e.NameB, e.OffB)
			}
			fmt.Fprintf(w, "    advice: %s\n", fs.Advice)
		}
		fmt.Fprintln(w)
	}
}

// RenderText summarizes the coherence-backed cross-check, listing every
// non-OK claim comparison and every prediction verdict.
func (r *Report) RenderText(w io.Writer) {
	fmt.Fprintf(w, "Sharing cross-check against coherence traffic (%s):\n", r.Program)
	fmt.Fprintf(w, "  claims: %d ok / %d mismatch / %d warning / %d unverified\n",
		r.OK, r.Mismatches, r.Warnings, r.Unverified)
	for _, cc := range r.Claims {
		if cc.Status == CheckOK {
			continue
		}
		c := cc.Claim
		fmt.Fprintf(w, "  %-11s %s %s.%s (%s, %s): %s\n",
			cc.Status, c.Role.Name(), c.ObjName, c.FieldName, c.Class, c.Conf, cc.Detail)
	}
	if len(r.Preds) > 0 {
		fmt.Fprintf(w, "  predictions: %d confirmed / %d unconfirmed\n", r.Confirmed, r.Unconfirmed)
		for _, pc := range r.Preds {
			verdict := "CONFIRMED"
			if !pc.Confirmed {
				verdict = "unconfirmed"
			}
			fmt.Fprintf(w, "  %-11s false sharing on %s: %s\n", verdict, pc.Pred.ObjName, pc.Detail)
		}
	}
	for _, x := range r.Extra {
		fmt.Fprintf(w, "  dynamic-only %s\n", x)
	}
	if r.Failed() {
		fmt.Fprintf(w, "  RESULT: FAIL — sharing claims contradict the coherence observer\n")
	} else {
		fmt.Fprintf(w, "  RESULT: ok — every exact sharing claim is consistent with observed coherence traffic\n")
	}
	fmt.Fprintln(w)
}
