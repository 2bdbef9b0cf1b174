// Package prog represents the synthetic programs StructSlim profiles:
// functions of basic blocks over the isa instruction set, static data
// objects, a struct-type registry (the stand-in for DWARF debug info), and
// a builder DSL for writing loop kernels.
//
// The package also models data layouts. A RecordSpec describes the
// *logical* fields of an aggregate (e.g. ART's f1_neuron); a PhysLayout
// maps those fields onto one or more physical structs. The identity AoS
// layout places every field in a single struct — the "before" program —
// while a Split layout partitions fields into several structs — the
// "after" program. Workload kernels are written once against the logical
// record and can be built with either layout, which is how the benchmark
// harness measures the effect of StructSlim's advice.
package prog

import (
	"fmt"
	"sort"
	"strings"
)

// Field is one logical field of a record. Size is in bytes; fields larger
// than 8 bytes (e.g. NN's char entry[49]) are byte arrays with alignment 1.
type Field struct {
	Name  string
	Size  int
	Float bool // values are float64 bit patterns (only meaningful for Size 8)
}

// Align returns the natural alignment of the field: its size for power-of-
// two sizes up to 8, and 1 for anything else (byte arrays).
func (f Field) Align() int {
	switch f.Size {
	case 1, 2, 4, 8:
		return f.Size
	}
	return 1
}

// RecordSpec is the logical shape of an aggregate data structure, before
// any layout decision.
type RecordSpec struct {
	Name   string
	Fields []Field
}

// NewRecord builds a RecordSpec, validating field names and sizes.
func NewRecord(name string, fields ...Field) (*RecordSpec, error) {
	if name == "" {
		return nil, fmt.Errorf("record needs a name")
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("record %s has no fields", name)
	}
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("record %s: field with empty name", name)
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("record %s: duplicate field %s", name, f.Name)
		}
		seen[f.Name] = true
		if f.Size <= 0 {
			return nil, fmt.Errorf("record %s: field %s has size %d", name, f.Name, f.Size)
		}
	}
	return &RecordSpec{Name: name, Fields: fields}, nil
}

// MustRecord is NewRecord for statically-known specs; it panics on error.
func MustRecord(name string, fields ...Field) *RecordSpec {
	r, err := NewRecord(name, fields...)
	if err != nil {
		panic(err)
	}
	return r
}

// FieldIndex returns the index of the named field, or -1.
func (r *RecordSpec) FieldIndex(name string) int {
	for i, f := range r.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// FieldNames returns the field names in declaration order.
func (r *RecordSpec) FieldNames() []string {
	names := make([]string, len(r.Fields))
	for i, f := range r.Fields {
		names[i] = f.Name
	}
	return names
}

// PhysField is a field placed at a concrete offset inside a StructType.
type PhysField struct {
	Name   string
	Offset int
	Size   int
	Float  bool
}

// StructType is a concrete in-memory struct layout. It is registered with
// a Program so the analyzer's reporter can translate sampled offsets back
// to field names, playing the role of debug info.
type StructType struct {
	Name   string
	Fields []PhysField
	Size   int // padded size: the stride of an array of this struct
	Align  int
}

// FieldIndexAt returns the index in Fields of the field covering the
// byte at the given offset, or -1 if the offset falls into padding or out
// of range.
func (st *StructType) FieldIndexAt(offset int) int {
	for i := range st.Fields {
		f := &st.Fields[i]
		if offset >= f.Offset && offset < f.Offset+f.Size {
			return i
		}
	}
	return -1
}

// FieldAt returns the field covering the byte at the given offset, or nil
// if the offset falls into padding or out of range.
func (st *StructType) FieldAt(offset int) *PhysField {
	if i := st.FieldIndexAt(offset); i >= 0 {
		return &st.Fields[i]
	}
	return nil
}

// String renders a C-like definition of the struct.
func (st *StructType) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "struct %s { ", st.Name)
	for _, f := range st.Fields {
		fmt.Fprintf(&b, "%s@%d:%d; ", f.Name, f.Offset, f.Size)
	}
	fmt.Fprintf(&b, "} // size %d", st.Size)
	return b.String()
}

// layoutStruct computes offsets for the given logical fields in order,
// honoring natural alignment, and returns the resulting StructType.
func layoutStruct(name string, fields []Field) *StructType {
	st := &StructType{Name: name, Align: 1}
	off := 0
	for _, f := range fields {
		a := f.Align()
		if a > st.Align {
			st.Align = a
		}
		off = alignUp(off, a)
		st.Fields = append(st.Fields, PhysField{Name: f.Name, Offset: off, Size: f.Size, Float: f.Float})
		off += f.Size
	}
	st.Size = alignUp(off, st.Align)
	if st.Size == 0 {
		st.Size = st.Align
	}
	return st
}

func alignUp(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// Placement locates one logical field inside a PhysLayout: which physical
// array it lives in and at what offset within that array's element struct.
type Placement struct {
	Arr    int // index into PhysLayout.Structs
	Offset int
}

// PhysLayout maps a RecordSpec's fields onto one or more physical structs.
type PhysLayout struct {
	Record  *RecordSpec
	Groups  [][]string // partition of field names, one group per struct
	Structs []*StructType
	place   map[string]Placement
}

// AoS returns the identity layout: all fields in one struct, in
// declaration order. This is the "original" program layout.
func AoS(rec *RecordSpec) *PhysLayout {
	l, err := Split(rec, [][]string{rec.FieldNames()})
	if err != nil {
		panic(err) // identity partition is always valid
	}
	return l
}

// Split builds a layout that partitions the record's fields into one
// struct per group. Groups must cover every field exactly once. Within a
// group, fields keep their declaration order so the result is
// deterministic regardless of how the groups were discovered.
func Split(rec *RecordSpec, groups [][]string) (*PhysLayout, error) {
	used := make(map[string]bool, len(rec.Fields))
	for _, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("split of %s: empty group", rec.Name)
		}
		for _, name := range g {
			if rec.FieldIndex(name) < 0 {
				return nil, fmt.Errorf("split of %s: unknown field %s", rec.Name, name)
			}
			if used[name] {
				return nil, fmt.Errorf("split of %s: field %s in two groups", rec.Name, name)
			}
			used[name] = true
		}
	}
	if len(used) != len(rec.Fields) {
		var missing []string
		for _, f := range rec.Fields {
			if !used[f.Name] {
				missing = append(missing, f.Name)
			}
		}
		return nil, fmt.Errorf("split of %s: fields not covered: %s", rec.Name, strings.Join(missing, ", "))
	}

	// Normalize: order fields within each group by declaration order, and
	// order groups by their first field's declaration order.
	norm := make([][]string, len(groups))
	for i, g := range groups {
		gg := append([]string(nil), g...)
		sort.Slice(gg, func(a, b int) bool {
			return rec.FieldIndex(gg[a]) < rec.FieldIndex(gg[b])
		})
		norm[i] = gg
	}
	sort.Slice(norm, func(a, b int) bool {
		return rec.FieldIndex(norm[a][0]) < rec.FieldIndex(norm[b][0])
	})

	l := &PhysLayout{Record: rec, Groups: norm, place: make(map[string]Placement)}
	for gi, g := range norm {
		fields := make([]Field, 0, len(g))
		for _, name := range g {
			fields = append(fields, rec.Fields[rec.FieldIndex(name)])
		}
		stName := rec.Name
		if len(norm) > 1 {
			stName = fmt.Sprintf("%s_%d", rec.Name, gi)
		}
		st := layoutStruct(stName, fields)
		l.Structs = append(l.Structs, st)
		for _, pf := range st.Fields {
			l.place[pf.Name] = Placement{Arr: gi, Offset: pf.Offset}
		}
	}
	return l, nil
}

// Reordered builds a single-struct layout with the record's fields in
// the given order — field *reordering*, the classic cheaper alternative
// to splitting (Chilimbi et al. reorder hot fields to share lines).
// order must be a permutation of the record's field names. The ablation
// benchmarks use this to show where reordering helps (co-accessed fields
// at opposite ends of a large struct) and where only splitting does
// (strided single-field scans).
func Reordered(rec *RecordSpec, order []string) (*PhysLayout, error) {
	if len(order) != len(rec.Fields) {
		return nil, fmt.Errorf("reorder of %s: %d names for %d fields", rec.Name, len(order), len(rec.Fields))
	}
	seen := make(map[string]bool, len(order))
	fields := make([]Field, 0, len(order))
	for _, name := range order {
		i := rec.FieldIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("reorder of %s: unknown field %q", rec.Name, name)
		}
		if seen[name] {
			return nil, fmt.Errorf("reorder of %s: field %q repeated", rec.Name, name)
		}
		seen[name] = true
		fields = append(fields, rec.Fields[i])
	}
	st := layoutStruct(rec.Name, fields)
	l := &PhysLayout{
		Record:  rec,
		Groups:  [][]string{append([]string(nil), order...)},
		Structs: []*StructType{st},
		place:   make(map[string]Placement),
	}
	for _, pf := range st.Fields {
		l.place[pf.Name] = Placement{Arr: 0, Offset: pf.Offset}
	}
	return l, nil
}

// Padded returns a copy of the layout whose struct strides are rounded
// up to a multiple of line bytes — the anti-false-sharing transform:
// element offsets are unchanged (so the layout stays legal whenever the
// original was), but neighboring elements no longer share a cache line.
// line <= 1, and strides already line-multiples, return the layout
// unchanged.
func (l *PhysLayout) Padded(line int) *PhysLayout {
	if line <= 1 {
		return l
	}
	changed := false
	structs := make([]*StructType, len(l.Structs))
	for i, st := range l.Structs {
		size := alignUp(st.Size, line)
		if size == st.Size {
			structs[i] = st
			continue
		}
		cp := *st
		cp.Size = size
		structs[i] = &cp
		changed = true
	}
	if !changed {
		return l
	}
	return &PhysLayout{Record: l.Record, Groups: l.Groups, Structs: structs, place: l.place}
}

// Place returns the placement of the named field. It panics on unknown
// fields: layouts are total over their record by construction, so a miss
// is a programming error in a kernel.
func (l *PhysLayout) Place(field string) Placement {
	p, ok := l.place[field]
	if !ok {
		panic(fmt.Sprintf("layout of %s: no field %q", l.Record.Name, field))
	}
	return p
}

// Stride returns the element size of the physical array holding the named
// field.
func (l *PhysLayout) Stride(field string) int {
	return l.Structs[l.Place(field).Arr].Size
}

// NumArrays returns how many physical arrays the layout uses.
func (l *PhysLayout) NumArrays() int { return len(l.Structs) }

// IsSplit reports whether the layout uses more than one physical array.
func (l *PhysLayout) IsSplit() bool { return len(l.Structs) > 1 }

// String summarizes the layout, e.g. "f1_neuron{I,U | X,Q | P | ...}".
func (l *PhysLayout) String() string {
	parts := make([]string, len(l.Groups))
	for i, g := range l.Groups {
		parts[i] = strings.Join(g, ",")
	}
	return fmt.Sprintf("%s{%s}", l.Record.Name, strings.Join(parts, " | "))
}
