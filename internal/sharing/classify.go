package sharing

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/prog"
)

// classify.go aggregates a role's stream facts into per-field sharing
// claims and derives false-sharing findings from the private-write
// claims plus the program's layout facts.

// classifyRole buckets the role's attributed accesses by (global, field)
// and emits one FieldClaim per bucket, then derives the role's
// false-sharing findings.
func (a *Analysis) classifyRole(role *Role, streams []streamFact) {
	if role.Unanalyzed {
		return
	}
	type bkey struct{ global, field int }
	type bucket struct{ writes, reads []*streamFact }
	buckets := make(map[bkey]*bucket)
	var order []bkey
	// Per-global unions: the whole-object claim (field -1) must cover
	// every access to the global, because its dynamic counterpart counts
	// every write into the object regardless of field resolution.
	gWrites := make(map[int][]*streamFact)
	gReads := make(map[int][]*streamFact)
	for i := range streams {
		sf := &streams[i]
		write := sf.op == isa.Store
		if !sf.ea.attributed {
			// Pointer chases, heap addresses, raw constants: no object to
			// attribute to. Writes poison the role's exactness (an unknown
			// store may hit anything); reads are only counted.
			if write {
				a.UnattributedWrites[role]++
			} else {
				a.UnattributedReads[role]++
			}
			continue
		}
		k := bkey{global: sf.ea.global, field: a.fieldOf(sf)}
		b := buckets[k]
		if b == nil {
			b = &bucket{}
			buckets[k] = b
			order = append(order, k)
		}
		if write {
			b.writes = append(b.writes, sf)
			gWrites[k.global] = append(gWrites[k.global], sf)
		} else {
			b.reads = append(b.reads, sf)
			gReads[k.global] = append(gReads[k.global], sf)
		}
	}

	demoted := a.UnattributedWrites[role]
	var claims []*FieldClaim
	for _, k := range order {
		b := buckets[k]
		writes, reads := b.writes, b.reads
		if k.field < 0 {
			writes, reads = gWrites[k.global], gReads[k.global]
		}
		c := &FieldClaim{
			Role:            role,
			Global:          k.global,
			ObjName:         a.Program.Globals[k.global].Name,
			Field:           k.field,
			FieldName:       fieldNameOf(a.Program, k.global, k.field),
			NumWriteStreams: len(writes),
			NumReadStreams:  len(reads),
		}
		if len(writes) > 0 {
			c.Where = writes[0].where
		} else {
			c.Where = reads[0].where
		}
		classifyBucket(c, writes, reads)
		wholeWrites := false
		if wb := buckets[bkey{k.global, -1}]; k.field >= 0 && wb != nil && len(wb.writes) > 0 {
			wholeWrites = true
		}
		switch {
		case c.Conf != Exact:
		case wholeWrites:
			// A write attributed only to the whole object may hit any
			// field, so no per-field claim on this global is checkable.
			c.Conf = Hint
			c.Reason = "write(s) into the object not attributed to a field"
		case !role.Exclusive:
			c.Conf = Hint
			c.Reason = "phase runs threads outside this role"
		case demoted > 0:
			c.Conf = Hint
			c.Reason = fmt.Sprintf("%d write(s) in the role never resolved to an object", demoted)
		}
		claims = append(claims, c)
	}
	a.Claims = append(a.Claims, claims...)
	a.detectFalseShares(role, claims)
}

// fieldOf attributes one attributed access to a field of its global's
// element struct. -1 means "the whole object": untyped globals, unknown
// constant parts, thread strides that walk across fields, or accesses
// straddling a field boundary.
func (a *Analysis) fieldOf(sf *streamFact) int {
	st := a.Program.TypeOfGlobal(sf.ea.global)
	if st == nil || st.Size <= 0 || sf.ea.cU {
		return -1
	}
	// The element offset must be thread-invariant: a thread stride that is
	// not a multiple of the element size lands different threads in
	// different fields.
	if umod(sf.ea.tid, int64(st.Size)) != 0 {
		return -1
	}
	off := int(umod(sf.ea.c, int64(st.Size)))
	for fi := range st.Fields {
		f := &st.Fields[fi]
		if off >= f.Offset && off+int(sf.size) <= f.Offset+f.Size {
			return fi
		}
	}
	return -1
}

// classifyBucket sets Class/Conf and the checkable invariants from the
// bucket's write and read streams.
func classifyBucket(c *FieldClaim, writes, reads []*streamFact) {
	allPrivReads := true
	for _, r := range reads {
		if r.ea.tid == 0 || r.ea.cU {
			allPrivReads = false
		}
	}

	if len(writes) == 0 {
		// Checkable invariant: nobody writes this field during the phase.
		c.NoWrites = true
		c.Conf = Exact
		if len(reads) > 0 && allPrivReads {
			c.Class = ClassPrivate
		} else {
			c.Class = ClassReadShared
		}
		return
	}

	privExact := true // every write has tid≠0, known c, and one shape
	allTidNonzero := true
	var wTid, wC int64
	first := true
	for _, w := range writes {
		if w.ea.tid == 0 {
			allTidNonzero = false
			privExact = false
			continue
		}
		if w.ea.cU {
			privExact = false
			continue
		}
		if first {
			wTid, wC, first = w.ea.tid, w.ea.c, false
		} else if w.ea.tid != wTid || w.ea.c != wC {
			privExact = false
		}
	}

	switch {
	case privExact:
		// Per-thread address sets are singletons at distinct addresses:
		// checkably private writes.
		c.WritesPrivate = true
		c.WriteTidStride = abs64(wTid)
		c.WriteOffset = wC
		if len(reads) > 0 && !allPrivReads {
			c.Class = ClassWriteShared
			c.Conf = Exact
			c.Reason = "written privately but read across threads"
		} else {
			c.Class = ClassPrivate
			c.Conf = Exact
		}
	case allTidNonzero:
		// Thread-dependent writes whose constant parts did not resolve:
		// probably partitioned, not checkable.
		c.Class = ClassPrivate
		c.Conf = Hint
		c.Reason = "per-thread write streams with unresolved constant parts"
	default:
		// Some write's address is thread-invariant: several threads write
		// the same bytes. A may-claim the verifier never has to falsify.
		c.Class = ClassWriteShared
		c.Conf = Exact
	}
}

// detectFalseShares turns the role's private-exact write claims into
// keep-apart findings: fields whose per-thread write stride is below the
// line size put bytes written by different threads on one cache line.
func (a *Analysis) detectFalseShares(role *Role, claims []*FieldClaim) {
	byG := make(map[int][]*FieldClaim)
	var gOrder []int
	for _, c := range claims {
		if c.Conf != Exact || !c.WritesPrivate || c.WriteTidStride <= 0 || c.WriteTidStride >= a.LineSize {
			continue
		}
		if byG[c.Global] == nil {
			gOrder = append(gOrder, c.Global)
		}
		byG[c.Global] = append(byG[c.Global], c)
	}
	sort.Ints(gOrder)
	for _, g := range gOrder {
		fields := byG[g]
		sort.Slice(fields, func(i, j int) bool { return fields[i].Field < fields[j].Field })
		fs := &FalseShare{
			Role:     role,
			Global:   g,
			ObjName:  a.Program.Globals[g].Name,
			Fields:   fields,
			LineSize: a.LineSize,
			Stride:   fields[0].WriteTidStride,
		}
		st := a.Program.TypeOfGlobal(g)
		if st != nil {
			fs.Struct = st.Name
		}
		for _, c := range fields {
			if c.WriteTidStride < fs.Stride {
				fs.Stride = c.WriteTidStride
			}
		}
		// Keep-apart edges: every pair of involved fields, self-pairs
		// included (a field false-shares with its own copies in neighbor
		// elements). The edge offsets cite the physical placement.
		for i := 0; i < len(fields); i++ {
			for j := i; j < len(fields); j++ {
				fa, fb := fields[i], fields[j]
				fs.Edges = append(fs.Edges, KeepApart{
					NameA: fa.FieldName, NameB: fb.FieldName,
					OffA: fieldOffset(st, fa), OffB: fieldOffset(st, fb),
				})
			}
		}
		if st != nil {
			fs.Advice = fmt.Sprintf(
				"pad struct %s from stride %d to the %d-byte line, or split the written fields into per-thread arrays spaced a line apart",
				st.Name, st.Size, a.LineSize)
		} else {
			fs.Advice = fmt.Sprintf(
				"space per-thread slots of %s at least one %d-byte line apart (observed stride %d)",
				fs.ObjName, a.LineSize, fs.Stride)
		}
		a.FalseShares = append(a.FalseShares, fs)
	}
}

// fieldOffset cites a claim's physical byte offset: the field offset for
// typed globals, the write stream's constant offset otherwise.
func fieldOffset(st *prog.StructType, c *FieldClaim) int64 {
	if st != nil && c.Field >= 0 && c.Field < len(st.Fields) {
		return int64(st.Fields[c.Field].Offset)
	}
	return c.WriteOffset
}

// umod is the non-negative remainder of d by size.
func umod(d, size int64) int64 {
	if size <= 0 {
		return 0
	}
	m := d % size
	if m < 0 {
		m += size
	}
	return m
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
