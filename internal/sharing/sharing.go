// Package sharing is the static sharing and false-sharing analyzer: the
// multithreaded counterpart of internal/staticlint. Where staticlint
// predicts per-loop strides of a single thread, sharing asks *which
// threads touch which struct fields*. It derives thread roles from a
// workload's execution phases (groups of threads running the same
// function with per-thread arguments), solves staticlint's affine
// address domain per role with the thread index as one more symbol, and
// classifies every (role, object, field) as thread-private,
// read-shared, or write-shared.
//
// The classification composes with the layout facts the program already
// carries (struct types, field offsets, element strides): fields written
// privately by different threads at a per-thread stride smaller than a
// cache line provably land on shared lines — static false-sharing
// detection, reported as "keep-apart" edges (the inverse of the Eq. 7
// affinity edges, which say "keep together") plus padding/split advice.
//
// Each static claim is a narrow, checkable statement:
//
//   - Private (exact): during the role's phase, every address of the
//     field is written by at most one thread — the per-thread address
//     sets are disjoint by construction (nonzero thread-index
//     coefficient, known constant part).
//   - ReadShared (exact): no thread writes the field during the phase.
//   - WriteShared: threads may write overlapping addresses; a pure
//     may-claim that the verifier never falsifies.
//
// A dynamic verifier (verify.go) replays the program with a coherence
// observer attached to the cache directory and checks every exact claim
// against observed per-line invalidation traffic (crosscheck.go),
// mirroring staticlint's static-vs-dynamic cross-check.
package sharing

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/vm"
)

// Class is the sharing classification of one (role, object, field).
type Class uint8

// Sharing classes. The order is the evidence lattice: converting writes
// to reads can only move a classification down, never up — the
// monotonicity property the fuzzer checks.
const (
	// ClassUnknown: the analysis could not attribute the accesses.
	ClassUnknown Class = iota
	// ClassPrivate: each thread accesses its own disjoint addresses.
	ClassPrivate
	// ClassReadShared: read by several threads, written by none.
	ClassReadShared
	// ClassWriteShared: written at addresses several threads may touch.
	ClassWriteShared
)

func (c Class) String() string {
	switch c {
	case ClassPrivate:
		return "thread-private"
	case ClassReadShared:
		return "read-shared"
	case ClassWriteShared:
		return "write-shared"
	}
	return "unknown"
}

// Rank returns the class's position in the evidence order.
func (c Class) Rank() int { return int(c) }

// Conf grades a claim. Exact claims are hard statements the verifier
// enforces; Hint claims are the conservative fallback when some address
// in the role resolved incompletely.
type Conf uint8

// Confidence levels.
const (
	Hint Conf = iota
	Exact
)

func (c Conf) String() string {
	if c == Exact {
		return "exact"
	}
	return "hint"
}

// FieldClaim is the classification of one struct field (or of a whole
// untyped object, Field == -1) under one thread role.
type FieldClaim struct {
	Role      *Role
	Global    int // index into Program.Globals
	ObjName   string
	Field     int // field index in the element struct type, -1 for untyped
	FieldName string

	Class Class
	Conf  Conf

	// NoWrites marks claims whose checkable invariant is "no thread
	// writes this field during the role's phase" (read-only fields).
	NoWrites bool
	// WritesPrivate marks claims whose checkable invariant is "every
	// written address has a single writing thread".
	WritesPrivate bool

	// WriteTidStride is the per-thread address stride of private writes
	// in bytes (|coefficient of the thread index|); 0 otherwise.
	WriteTidStride int64
	// WriteOffset is the constant byte offset of the private write
	// stream within the object.
	WriteOffset int64

	NumWriteStreams, NumReadStreams int

	// Where cites one representative access site.
	Where  string
	Reason string // why the claim is demoted to Hint, if it is
}

// key orders and identifies claims within an analysis.
func (c *FieldClaim) key() [3]int { return [3]int{c.Role.Phase, c.Global, c.Field} }

// KeepApart is one keep-apart edge: two field offsets (possibly equal —
// a field false-shares with its own instances in neighbor elements) that
// should not share a cache line across threads.
type KeepApart struct {
	NameA, NameB string
	OffA, OffB   int64
}

// FalseShare is one predicted false-sharing site: private per-thread
// writes into an object at a stride below the line size.
type FalseShare struct {
	Role    *Role
	Global  int
	ObjName string
	Struct  string // element struct name, "" for untyped objects

	// Fields lists the privately-written fields involved (claims of this
	// analysis), sorted by field index.
	Fields []*FieldClaim
	// Stride is the smallest per-thread write stride among them.
	Stride   int64
	LineSize int64

	Edges  []KeepApart
	Advice string
}

// Analysis is the full sharing analysis of one program + phase list.
type Analysis struct {
	Program  *prog.Program
	LineSize int64

	Roles       []*Role
	Claims      []*FieldClaim
	FalseShares []*FalseShare

	// UnattributedReads / UnattributedWrites count role streams whose
	// address never resolved to an object (pointer chases, unknown
	// bases). Unattributed writes demote the whole role to Hint.
	UnattributedReads, UnattributedWrites map[*Role]int
}

// Analyze runs the sharing classification. phases is the workload's
// phase list (the same value handed to the vm); lineSize is the cache
// line size the false-sharing prediction targets (0 = 64).
func Analyze(p *prog.Program, phases [][]vm.ThreadSpec, lineSize int64) (*Analysis, error) {
	if !p.Finalized() {
		return nil, fmt.Errorf("program %s not finalized", p.Name)
	}
	if lineSize <= 0 {
		lineSize = 64
	}
	a := &Analysis{
		Program:            p,
		LineSize:           lineSize,
		Roles:              DeriveRoles(phases),
		UnattributedReads:  make(map[*Role]int),
		UnattributedWrites: make(map[*Role]int),
	}
	for _, role := range a.Roles {
		streams, converged := roleStreams(p, role)
		if !converged {
			role.Unanalyzed = true
		}
		a.classifyRole(role, streams)
	}
	sort.Slice(a.Claims, func(i, j int) bool {
		ki, kj := a.Claims[i].key(), a.Claims[j].key()
		for x := 0; x < 3; x++ {
			if ki[x] != kj[x] {
				return ki[x] < kj[x]
			}
		}
		return false
	})
	sort.Slice(a.FalseShares, func(i, j int) bool {
		if a.FalseShares[i].Role.Phase != a.FalseShares[j].Role.Phase {
			return a.FalseShares[i].Role.Phase < a.FalseShares[j].Role.Phase
		}
		return a.FalseShares[i].Global < a.FalseShares[j].Global
	})
	return a, nil
}

// FindClaim returns the claim for (phase, global, field), or nil.
func (a *Analysis) FindClaim(phase, global, field int) *FieldClaim {
	for _, c := range a.Claims {
		if c.Role.Phase == phase && c.Global == global && c.Field == field {
			return c
		}
	}
	return nil
}

// predicted reports whether the claim is part of a false-share finding.
func (a *Analysis) predicted(c *FieldClaim) bool {
	for _, fs := range a.FalseShares {
		for _, fc := range fs.Fields {
			if fc == c {
				return true
			}
		}
	}
	return false
}

// fieldNameOf resolves a field index of a global's element type.
func fieldNameOf(p *prog.Program, global, field int) string {
	if field < 0 {
		return "(whole object)"
	}
	st := p.TypeOfGlobal(global)
	if st == nil || field >= len(st.Fields) {
		return fmt.Sprintf("field#%d", field)
	}
	return st.Fields[field].Name
}

// argRegOK reports whether an argument index fits the calling convention.
func argRegOK(i int) bool { return i >= 0 && i < 6 && isa.ArgReg0+isa.Reg(i) <= isa.ArgReg5 }
