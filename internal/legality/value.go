package legality

import (
	"math/bits"

	"repro/internal/stride"
)

// value.go is the abstract domain of the provenance pass: each register
// holds a *provenance + congruence* value — the set of data objects a
// pointer may be based on, together with a congruence class describing
// the offset from that base. The congruence half is the classic
// "constant + stride lattice": (c, m) denotes the set {c + k·m | k ∈ Z},
// with m == 0 meaning the exact constant c and m == 1 meaning any
// integer. The provenance half is a bitset over the analysis object
// table. A value whose object set is empty is a plain integer; a value
// with objects and opaque == true is a pointer that passed through
// arithmetic the resolver cannot invert (mul, div, bit ops, float ops) —
// dereferencing or storing such a value freezes its objects.

// objSet is an immutable bitset over analysis-object ids. The zero value
// is the empty set.
type objSet []uint64

func (s objSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s objSet) equal(o objSet) bool {
	n := len(s)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s) {
			a = s[i]
		}
		if i < len(o) {
			b = o[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// union returns s ∪ o, reusing s when o adds nothing.
func (s objSet) union(o objSet) objSet {
	if o.empty() {
		return s
	}
	if s.empty() {
		return o
	}
	grown := false
	for i, w := range o {
		if i >= len(s) || s[i]|w != s[i] {
			grown = true
			break
		}
	}
	if !grown {
		return s
	}
	n := len(s)
	if len(o) > n {
		n = len(o)
	}
	r := make(objSet, n)
	copy(r, s)
	for i, w := range o {
		r[i] |= w
	}
	return r
}

func singleObj(i int) objSet {
	s := make(objSet, i>>6+1)
	s[i>>6] = 1 << (uint(i) & 63)
	return s
}

// each calls fn for every member in ascending order.
func (s objSet) each(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			fn(i)
			w &= w - 1
		}
	}
}

// value is one abstract register value. Invariants: if m > 0 then
// 0 <= c < m after canon(); opaque implies objs non-empty.
type value struct {
	objs   objSet
	c      int64
	m      uint64
	opaque bool
}

func unknown() value       { return value{m: 1} }
func exact(c int64) value  { return value{c: c} }
func objValue(i int) value { return value{objs: singleObj(i)} }

// opaquePtr is the demoted form of a pointer that went through
// non-affine arithmetic: provenance retained, offset lost.
func opaquePtr(objs objSet) value { return value{objs: objs, m: 1, opaque: true} }

func (v value) isPtr() bool { return !v.objs.empty() }

// canon normalizes the congruence representative.
func (v value) canon() value {
	if v.m == 1 {
		v.c = 0
	} else if v.m > 1 {
		v.c = int64(umod64(v.c, v.m))
	}
	if v.objs.empty() {
		v.opaque = false
		v.objs = nil
	}
	return v
}

func (v value) equal(o value) bool {
	return v.c == o.c && v.m == o.m && v.opaque == o.opaque && v.objs.equal(o.objs)
}

// congJoin joins two congruence classes: the smallest class (largest
// modulus) containing both.
func congJoin(c1 int64, m1 uint64, c2 int64, m2 uint64) (int64, uint64) {
	if m1 == 0 && m2 == 0 && c1 == c2 {
		return c1, 0
	}
	// |c1 - c2| computed wrapping; offsets in practice never overflow.
	d := uint64(c1 - c2)
	if int64(d) < 0 {
		d = -d
	}
	m := stride.GCD(stride.GCD(m1, m2), d)
	if m == 0 {
		return c1, 0
	}
	return int64(umod64(c1, m)), m
}

func join(a, b value) value {
	c, m := congJoin(a.c, a.m, b.c, b.m)
	return value{
		objs:   a.objs.union(b.objs),
		c:      c,
		m:      m,
		opaque: a.opaque || b.opaque,
	}.canon()
}

// addVals models Add: pointer + integer keeps provenance and shifts the
// class; pointer + pointer is not an address anymore (demoted opaque).
func addVals(a, b value) value {
	if a.isPtr() && b.isPtr() {
		return opaquePtr(a.objs.union(b.objs))
	}
	v := value{objs: a.objs.union(b.objs), opaque: a.opaque || b.opaque}
	if a.m == 0 && b.m == 0 {
		v.c = a.c + b.c
	} else {
		v.m = stride.GCD(a.m, b.m)
		v.c = a.c + b.c
	}
	return v.canon()
}

// subVals models Sub: ptr - int shifts; ptr - ptr is a plain integer
// (a pointer difference); int - ptr is demoted.
func subVals(a, b value) value {
	switch {
	case a.isPtr() && b.isPtr():
		return unknown()
	case b.isPtr():
		return opaquePtr(b.objs)
	}
	v := value{objs: a.objs, opaque: a.opaque}
	if a.m == 0 && b.m == 0 {
		v.c = a.c - b.c
	} else {
		v.m = stride.GCD(a.m, b.m)
		v.c = a.c - b.c
	}
	return v.canon()
}

// mulVals models Mul/MulI on integers; pointer operands are handled by
// the caller (they demote). (c1 + m1·Z)·(c2 + m2·Z) ⊆ c1c2 + g·Z with
// g = gcd(c1·m2, c2·m1, m1·m2).
func mulVals(a, b value) value {
	if a.m == 0 && b.m == 0 {
		if p, ok := mulOverflows(a.c, b.c); ok {
			return exact(p)
		}
		return unknown()
	}
	t1, ok1 := mulOverflows(a.c, int64(b.m))
	t2, ok2 := mulOverflows(b.c, int64(a.m))
	t3, ok3 := mulOverflows(int64(a.m), int64(b.m))
	p, okp := mulOverflows(a.c, b.c)
	if !ok1 || !ok2 || !ok3 || !okp {
		return unknown()
	}
	g := stride.GCD(stride.GCD(abs64u(t1), abs64u(t2)), abs64u(t3))
	if g == 0 {
		return exact(p)
	}
	return value{c: p, m: g}.canon()
}

// mulOverflows returns a*b and whether it did NOT overflow.
func mulOverflows(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func abs64u(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// umod64 is the Euclidean remainder of a signed value by a modulus.
func umod64(c int64, m uint64) uint64 {
	r := c % int64(m)
	if r < 0 {
		r += int64(m)
	}
	return uint64(r)
}
