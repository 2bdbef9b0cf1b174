// Package mem simulates the profiled program's data address space.
//
// It provides byte-addressable storage (so pointer-chasing workloads see
// real stored values), a static data segment populated from the program's
// symbol table, and a heap bump allocator that records each allocation's
// site and call path — the information StructSlim obtains on real systems
// by reading symbol tables and interposing on allocation functions.
//
// Every allocated range is registered as an Object. FindObject resolves an
// effective address to its object, which is the data-centric attribution
// primitive of the profiler.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Segment base addresses of the simulated address space. They are spread
// far apart so misattributed addresses fail loudly in tests.
const (
	StaticBase uint64 = 0x0000_0000_1000_0000
	HeapBase   uint64 = 0x0000_0000_4000_0000
)

// ObjKind distinguishes static symbols from heap allocations.
type ObjKind uint8

// Object kinds.
const (
	StaticObj ObjKind = iota
	HeapObj
)

func (k ObjKind) String() string {
	if k == StaticObj {
		return "static"
	}
	return "heap"
}

// Object is one allocated data range. Identity groups objects that belong
// to the same logical data structure: a static symbol is its own identity;
// heap allocations share an identity when they were made from the same
// allocation call path (e.g. every tree node malloc'd in the same loop),
// exactly as the paper aggregates heap objects.
type Object struct {
	ID       int
	Kind     ObjKind
	Name     string // symbol name for statics; synthesized for heap
	Base     uint64
	Size     uint64
	AllocIP  uint64 // Alloc instruction IP for heap objects
	Identity uint64 // hash grouping objects of the same logical structure
	TypeID   int    // debug-info struct type, or -1
	GlobalIx int    // index into prog.Globals for statics, else -1
}

// page granularity of the backing store.
const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Space is a simulated data address space.
type Space struct {
	pages map[uint64]*[pageSize]byte

	// last-page cache to keep the interpreter's common case cheap
	lastPageNo uint64
	lastPage   *[pageSize]byte

	staticCursor uint64
	heapCursor   uint64

	objects []*Object
	// sortedBase is objects ordered by Base for binary-search lookup; kept
	// sorted incrementally (allocations are already in ascending order per
	// segment, but statics and heap interleave).
	sortedBase []*Object

	// lastObj caches the most recent FindObject hit: stride-friendly
	// access streams resolve the same object many times in a row, so the
	// common case is one range check instead of a binary search.
	lastObj *Object
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{
		pages:        make(map[uint64]*[pageSize]byte),
		staticCursor: StaticBase,
		heapCursor:   HeapBase,
		lastPageNo:   ^uint64(0),
	}
}

func (s *Space) page(addr uint64) *[pageSize]byte {
	no := addr >> pageShift
	if no == s.lastPageNo {
		return s.lastPage
	}
	p, ok := s.pages[no]
	if !ok {
		p = new([pageSize]byte)
		s.pages[no] = p
	}
	s.lastPageNo, s.lastPage = no, p
	return p
}

// ReadInt reads size bytes little-endian at addr, zero-extended.
// Reads beyond a page boundary are assembled byte-wise.
func (s *Space) ReadInt(addr uint64, size int) int64 {
	off := addr & pageMask
	p := s.page(addr)
	if off+uint64(size) <= pageSize {
		// Bulk little-endian loads for the common sizes; identical to the
		// byte loop, which remains for the odd ones.
		switch size {
		case 8:
			return int64(binary.LittleEndian.Uint64(p[off : off+8]))
		case 4:
			return int64(uint64(binary.LittleEndian.Uint32(p[off : off+4])))
		case 2:
			return int64(uint64(binary.LittleEndian.Uint16(p[off : off+2])))
		case 1:
			return int64(uint64(p[off]))
		}
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(p[off+uint64(i)])
		}
		return int64(v)
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(s.readByte(addr+uint64(i)))
	}
	return int64(v)
}

// WriteInt writes the low size bytes of v little-endian at addr.
func (s *Space) WriteInt(addr uint64, size int, v int64) {
	off := addr & pageMask
	p := s.page(addr)
	u := uint64(v)
	if off+uint64(size) <= pageSize {
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:off+8], u)
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:off+4], uint32(u))
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:off+2], uint16(u))
			return
		case 1:
			p[off] = byte(u)
			return
		}
		for i := 0; i < size; i++ {
			p[off+uint64(i)] = byte(u)
			u >>= 8
		}
		return
	}
	for i := 0; i < size; i++ {
		s.writeByte(addr+uint64(i), byte(u))
		u >>= 8
	}
}

func (s *Space) readByte(addr uint64) byte {
	return s.page(addr)[addr&pageMask]
}

func (s *Space) writeByte(addr uint64, b byte) {
	s.page(addr)[addr&pageMask] = b
}

const allocAlign = 16

func alignUp64(n, a uint64) uint64 { return (n + a - 1) / a * a }

// AllocStatic places a static symbol and registers it as an object.
func (s *Space) AllocStatic(name string, size uint64, typeID, globalIx int) *Object {
	base := alignUp64(s.staticCursor, allocAlign)
	s.staticCursor = base + size
	o := &Object{
		ID:       len(s.objects),
		Kind:     StaticObj,
		Name:     name,
		Base:     base,
		Size:     size,
		Identity: staticIdentity(name),
		TypeID:   typeID,
		GlobalIx: globalIx,
	}
	s.addObject(o)
	return o
}

// AllocHeap services an Alloc instruction: a fresh heap range whose
// identity is the hash of its allocation call path (call-site IPs plus the
// Alloc site itself). Sequential allocations are contiguous up to
// alignment, matching the bump-pointer behaviour real allocators exhibit
// for same-sized requests — which is what makes stride analysis work on
// linked structures.
func (s *Space) AllocHeap(size uint64, allocIP uint64, callPath []uint64, typeID int) *Object {
	if size == 0 {
		size = 1
	}
	base := alignUp64(s.heapCursor, allocAlign)
	s.heapCursor = base + size
	o := &Object{
		ID:       len(s.objects),
		Kind:     HeapObj,
		Name:     fmt.Sprintf("heap@%#x", allocIP),
		Base:     base,
		Size:     size,
		AllocIP:  allocIP,
		Identity: heapIdentity(allocIP, callPath),
		TypeID:   typeID,
		GlobalIx: -1,
	}
	s.addObject(o)
	return o
}

func (s *Space) addObject(o *Object) {
	s.objects = append(s.objects, o)
	// Insert into sortedBase. Static and heap cursors both only grow, so
	// the insertion point is near the end for heap objects and in the
	// middle for statics; use binary search either way.
	i := sort.Search(len(s.sortedBase), func(i int) bool { return s.sortedBase[i].Base > o.Base })
	s.sortedBase = append(s.sortedBase, nil)
	copy(s.sortedBase[i+1:], s.sortedBase[i:])
	s.sortedBase[i] = o
}

// FindObject resolves an effective address to the object containing it,
// or nil. This is data-centric attribution's address→object map: a
// binary search over sortedBase behind the lastObj memo, which never
// changes the result.
func (s *Space) FindObject(addr uint64) *Object {
	if o := s.lastObj; o != nil && addr >= o.Base && addr < o.Base+o.Size {
		return o
	}
	i := sort.Search(len(s.sortedBase), func(i int) bool { return s.sortedBase[i].Base > addr })
	if i == 0 {
		return nil
	}
	o := s.sortedBase[i-1]
	if addr >= o.Base+o.Size {
		return nil
	}
	s.lastObj = o
	return o
}

// Objects returns all registered objects in allocation order.
func (s *Space) Objects() []*Object { return s.objects }

// NumObjects returns the number of registered objects.
func (s *Space) NumObjects() int { return len(s.objects) }

// staticIdentity hashes a symbol name (FNV-1a).
func staticIdentity(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h | 1 // never zero
}

// heapIdentity hashes an allocation call path.
func heapIdentity(allocIP uint64, callPath []uint64) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(allocIP)
	for _, ip := range callPath {
		mix(ip)
	}
	return h | 1
}
