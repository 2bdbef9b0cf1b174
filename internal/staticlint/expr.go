// Package staticlint is the static twin of the dynamic profiler: an IR
// dataflow analysis that predicts memory access patterns without running
// the program. Where internal/stride recovers strides, structure sizes,
// and field offsets from sparse address samples (paper Eqs. 2–6),
// staticlint derives the same facts symbolically from the binary alone:
// it detects loop induction variables over the Havlak loop forest
// (internal/cfg), resolves each Load/Store's effective address
// base + index*scale + disp into a linear form over loop counters, and
// emits per-(instruction, loop) stream predictions.
//
// Two consumers sit on top of the predictions: a cross-validation report
// (crosscheck.go) that compares static predictions against the dynamic
// profile stream by stream, and a layout linter (lint.go) that flags
// padding holes, hot/cold field mixing, and fields that never co-occur
// in a loop.
package staticlint

import (
	"fmt"
	"sort"
	"strings"
)

// ivRef names one symbol of the linear form: a loop's iteration counter
// κ, the counter of the reducible loop with the given header block in the
// given function, or tidSym.
type ivRef struct {
	Fn     int
	Header int
}

// tidSym is the thread index t. Only entry states built with TidAddr
// carry it: the sharing analysis seeds a thread role's arguments with it.
var tidSym = ivRef{Fn: -1, Header: -1}

// baseKind classifies the base object of a resolved address expression.
type baseKind uint8

// Base kinds. baseNone means the expression is a plain integer.
// baseUnknown is the merge of paths over different bases: an address
// whose base is some object, but not one statically known. It never
// cancels, so it cannot be subtracted, scaled or added to a second base.
const (
	baseNone baseKind = iota
	baseGlobal
	baseAlloc
	baseUnknown
)

// baseRef identifies the base data object of an address: a program global
// (by index) or a heap allocation site (by the Alloc instruction's IP).
type baseRef struct {
	Kind    baseKind
	Global  int    // valid for baseGlobal
	AllocIP uint64 // valid for baseAlloc
}

// exprKind is the lattice level of an abstract register value.
type exprKind uint8

const (
	// exprBottom: no value yet (unreached in the fixpoint iteration).
	exprBottom exprKind = iota
	// exprLin: fully resolved linear form base + const + Σ coeff·κ.
	exprLin
	// exprLinU: linear form whose constant part (and possibly base) is
	// unknown, but whose symbol coefficients are known. Predictions from
	// such values are hints, not hard claims.
	exprLinU
	// exprTop: statically unknown.
	exprTop
)

// Addr is one abstract register value, the address domain of staticlint
// and of the sharing analysis: a linear combination of symbols (loop
// counters and the thread index) over an optional base object plus a
// constant, or ⊥/⊤.
//
// Addr values are treated as immutable once built; terms maps are never
// mutated in place after construction.
type Addr struct {
	kind  exprKind
	base  baseRef
	c     int64
	terms map[ivRef]int64 // nonzero coefficients only
}

func bottom() Addr { return Addr{kind: exprBottom} }

// TopAddr is ⊤, the statically unknown value.
func TopAddr() Addr { return Addr{kind: exprTop} }

// ConstAddr is the plain integer c.
func ConstAddr(c int64) Addr { return Addr{kind: exprLin, c: c} }

// TidAddr is step·t + c over the thread index t.
func TidAddr(step, c int64) Addr { return ConstAddr(c).addTerm(tidSym, step) }

func baseExpr(b baseRef) Addr { return Addr{kind: exprLin, base: b} }

// GlobalBase returns the program global the address lies in; ok is false
// for ⊥, ⊤, plain integers, heap addresses and merges of different bases.
func (e Addr) GlobalBase() (global int, ok bool) {
	if !e.known() || e.base.Kind != baseGlobal {
		return 0, false
	}
	return e.base.Global, true
}

// TidCoeff returns the coefficient of the thread index t (0 if absent).
func (e Addr) TidCoeff() int64 { return e.coeff(tidSym) }

// KnownConst returns the constant part of the address; ok is false when
// it is unknown (the value varies across iterations or merged paths) or
// the value is ⊥/⊤.
func (e Addr) KnownConst() (c int64, ok bool) {
	if e.kind != exprLin {
		return 0, false
	}
	return e.c, true
}

func (e Addr) isConst() bool {
	return e.kind == exprLin && e.base.Kind == baseNone && len(e.terms) == 0
}

// known reports whether the value carries any linear structure (exprLin or
// exprLinU).
func (e Addr) known() bool { return e.kind == exprLin || e.kind == exprLinU }

// hasTerm reports whether κ of the given loop appears with a nonzero
// coefficient.
func (e Addr) hasTerm(iv ivRef) bool {
	_, ok := e.terms[iv]
	return ok
}

// coeff returns the coefficient of the given loop counter (0 if absent).
func (e Addr) coeff(iv ivRef) int64 { return e.terms[iv] }

func cloneTerms(t map[ivRef]int64) map[ivRef]int64 {
	if len(t) == 0 {
		return nil
	}
	out := make(map[ivRef]int64, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

func termsEqual(a, b map[ivRef]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func (e Addr) equal(o Addr) bool {
	return e.kind == o.kind && e.base == o.base && e.c == o.c && termsEqual(e.terms, o.terms)
}

// addTerm returns e with coefficient k added to loop counter iv.
func (e Addr) addTerm(iv ivRef, k int64) Addr {
	if k == 0 {
		return e
	}
	t := cloneTerms(e.terms)
	if t == nil {
		t = make(map[ivRef]int64, 1)
	}
	t[iv] += k
	if t[iv] == 0 {
		delete(t, iv)
	}
	e.terms = t
	return e
}

// join is the lattice join (control-flow merge) of two abstract values.
func join(a, b Addr) Addr {
	switch {
	case a.kind == exprBottom:
		return b
	case b.kind == exprBottom:
		return a
	case a.kind == exprTop || b.kind == exprTop:
		return TopAddr()
	case a.equal(b):
		return a
	}
	// Both linear-ish but unequal: if the symbol coefficients agree the
	// merge still has a known stride shape — keep it as a hint, with the
	// base preserved when both sides agree on it and unknown otherwise.
	if termsEqual(a.terms, b.terms) {
		out := Addr{kind: exprLinU, base: a.base, terms: a.terms}
		if a.base != b.base {
			out.base = baseRef{Kind: baseUnknown}
		}
		return out
	}
	return TopAddr()
}

// add returns the abstract sum a + b.
func add(a, b Addr) Addr {
	if !a.known() || !b.known() {
		return TopAddr()
	}
	if a.base.Kind != baseNone && b.base.Kind != baseNone {
		return TopAddr() // pointer + pointer: not a meaningful address form
	}
	out := Addr{kind: exprLin, base: a.base, c: a.c + b.c}
	if b.base.Kind != baseNone {
		out.base = b.base
	}
	if a.kind == exprLinU || b.kind == exprLinU {
		out.kind = exprLinU
	}
	t := cloneTerms(a.terms)
	for iv, k := range b.terms {
		if t == nil {
			t = make(map[ivRef]int64, len(b.terms))
		}
		t[iv] += k
		if t[iv] == 0 {
			delete(t, iv)
		}
	}
	out.terms = t
	return out
}

// sub returns the abstract difference a − b. Subtracting a matching base
// cancels it (pointer difference); subtracting a different or unknown
// base is ⊤.
func sub(a, b Addr) Addr {
	if !a.known() || !b.known() {
		return TopAddr()
	}
	if b.base.Kind != baseNone {
		if a.base != b.base || b.base.Kind == baseUnknown {
			return TopAddr()
		}
		a.base = baseRef{}
		b.base = baseRef{}
	}
	neg := Addr{kind: b.kind, c: -b.c}
	if len(b.terms) > 0 {
		nt := make(map[ivRef]int64, len(b.terms))
		for iv, k := range b.terms {
			nt[iv] = -k
		}
		neg.terms = nt
	}
	return add(a, neg)
}

// mulConst returns the abstract product a · k.
func mulConst(a Addr, k int64) Addr {
	if !a.known() {
		return TopAddr()
	}
	if k == 0 {
		return ConstAddr(0)
	}
	if a.base.Kind != baseNone && k != 1 {
		return TopAddr() // scaled pointer
	}
	out := Addr{kind: a.kind, base: a.base, c: a.c * k}
	if len(a.terms) > 0 {
		t := make(map[ivRef]int64, len(a.terms))
		for iv, c := range a.terms {
			t[iv] = c * k
		}
		out.terms = t
	}
	return out
}

// String renders the value for diagnostics and tests.
func (e Addr) String() string {
	switch e.kind {
	case exprBottom:
		return "⊥"
	case exprTop:
		return "⊤"
	}
	var parts []string
	switch e.base.Kind {
	case baseGlobal:
		parts = append(parts, fmt.Sprintf("g%d", e.base.Global))
	case baseAlloc:
		parts = append(parts, fmt.Sprintf("alloc@%#x", e.base.AllocIP))
	case baseUnknown:
		parts = append(parts, "base?")
	}
	ivs := make([]ivRef, 0, len(e.terms))
	for iv := range e.terms {
		ivs = append(ivs, iv)
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Fn != ivs[j].Fn {
			return ivs[i].Fn < ivs[j].Fn
		}
		return ivs[i].Header < ivs[j].Header
	})
	for _, iv := range ivs {
		if iv == tidSym {
			parts = append(parts, fmt.Sprintf("%d·t", e.terms[iv]))
		} else {
			parts = append(parts, fmt.Sprintf("%d·κ(f%d,b%d)", e.terms[iv], iv.Fn, iv.Header))
		}
	}
	if e.kind == exprLinU {
		parts = append(parts, "U")
	} else if e.c != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", e.c))
	}
	return strings.Join(parts, " + ")
}
