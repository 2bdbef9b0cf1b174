package prog

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Global describes one static data object of the program. The loader
// assigns its address; GAddr instructions reference it by index.
type Global struct {
	Name   string
	Size   int64
	TypeID int // index into Program.Types, or -1 if not an array of structs
}

// Func is a function: a name, a synthetic source file, and basic blocks.
// Block 0 is the entry. Control falls through from block i to block i+1
// unless block i ends in an unconditional terminator.
type Func struct {
	ID     int
	Name   string
	File   string
	Blocks []*Block
}

// Block is a basic block of instructions. Only the last instruction may be
// a terminator; a block without a terminator falls through.
type Block struct {
	ID     int
	Instrs []isa.Instr
}

// InstrLoc locates one instruction inside a program.
type InstrLoc struct {
	Fn, Block, Index int
}

// Program is a complete synthetic binary: functions, static data, and the
// struct-type registry that plays the role of debug information.
type Program struct {
	Name    string
	Funcs   []*Func
	EntryFn int
	Types   []*StructType
	Globals []Global

	// AllocSiteType maps an Alloc instruction's IP to the struct type the
	// allocation holds an array of — the equivalent of type information
	// recovered from debug info at an allocation call site. -1/absent
	// means untyped.
	AllocSiteType map[uint64]int

	// GlobalArrayType is implied by Globals[i].TypeID.

	finalized bool
	locs      []InstrLoc // indexed by (IP - TextBase) / InstrBytes
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NumInstrs returns the total instruction count across all functions.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// Finalize assigns instruction pointers, validates the program, and builds
// the IP lookup table. It must be called once before execution or analysis.
func (p *Program) Finalize() error {
	if p.finalized {
		return nil
	}
	if len(p.Funcs) == 0 {
		return fmt.Errorf("program %s: no functions", p.Name)
	}
	if p.EntryFn < 0 || p.EntryFn >= len(p.Funcs) {
		return fmt.Errorf("program %s: entry function %d out of range", p.Name, p.EntryFn)
	}
	if p.AllocSiteType == nil {
		p.AllocSiteType = make(map[uint64]int)
	}
	ip := isa.TextBase
	for fi, f := range p.Funcs {
		if f.ID != fi {
			return fmt.Errorf("program %s: function %s has id %d at index %d", p.Name, f.Name, f.ID, fi)
		}
		if len(f.Blocks) == 0 {
			return fmt.Errorf("function %s: no blocks", f.Name)
		}
		for bi, b := range f.Blocks {
			if b.ID != bi {
				return fmt.Errorf("function %s: block id %d at index %d", f.Name, b.ID, bi)
			}
			if len(b.Instrs) == 0 {
				return fmt.Errorf("function %s: block %d is empty", f.Name, bi)
			}
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if err := in.Validate(); err != nil {
					return fmt.Errorf("function %s block %d instr %d: %w", f.Name, bi, ii, err)
				}
				if in.Op.IsTerminator() && ii != len(b.Instrs)-1 {
					return fmt.Errorf("function %s block %d: terminator %s not last", f.Name, bi, in.Op)
				}
				switch in.Op {
				case isa.Jmp, isa.Br:
					if in.Target >= len(f.Blocks) {
						return fmt.Errorf("function %s block %d: branch target b%d out of range", f.Name, bi, in.Target)
					}
				case isa.Call:
					if in.Fn >= len(p.Funcs) {
						return fmt.Errorf("function %s block %d: call target f%d out of range", f.Name, bi, in.Fn)
					}
				case isa.GAddr:
					if in.Imm < 0 || in.Imm >= int64(len(p.Globals)) {
						return fmt.Errorf("function %s block %d: global g%d out of range", f.Name, bi, in.Imm)
					}
				}
				in.IP = ip
				p.locs = append(p.locs, InstrLoc{Fn: fi, Block: bi, Index: ii})
				ip += isa.InstrBytes
			}
			// A fallthrough off the end of the last block would run off
			// the function; require a terminator there.
			last := &b.Instrs[len(b.Instrs)-1]
			if bi == len(f.Blocks)-1 && !last.Op.IsTerminator() {
				return fmt.Errorf("function %s: last block %d does not end in a terminator", f.Name, bi)
			}
			// A Br as last instruction of the last block has nowhere to
			// fall through to.
			if bi == len(f.Blocks)-1 && last.Op == isa.Br {
				return fmt.Errorf("function %s: last block %d ends in a conditional branch with no fallthrough", f.Name, bi)
			}
		}
	}
	for _, g := range p.Globals {
		if g.Size <= 0 {
			return fmt.Errorf("program %s: global %s has size %d", p.Name, g.Name, g.Size)
		}
		if g.TypeID >= len(p.Types) {
			return fmt.Errorf("program %s: global %s has type id %d out of range", p.Name, g.Name, g.TypeID)
		}
	}
	for ip, tid := range p.AllocSiteType {
		if tid < 0 || tid >= len(p.Types) {
			return fmt.Errorf("program %s: alloc site %#x has type id %d out of range", p.Name, ip, tid)
		}
	}
	p.finalized = true
	return nil
}

// Finalized reports whether Finalize has completed successfully.
func (p *Program) Finalized() bool { return p.finalized }

// Loc returns the location of the instruction at the given IP.
func (p *Program) Loc(ip uint64) (InstrLoc, bool) {
	if ip < isa.TextBase {
		return InstrLoc{}, false
	}
	idx := (ip - isa.TextBase) / isa.InstrBytes
	if idx >= uint64(len(p.locs)) {
		return InstrLoc{}, false
	}
	return p.locs[idx], true
}

// InstrAt returns the instruction at the given IP, or nil.
func (p *Program) InstrAt(ip uint64) *isa.Instr {
	loc, ok := p.Loc(ip)
	if !ok {
		return nil
	}
	return &p.Funcs[loc.Fn].Blocks[loc.Block].Instrs[loc.Index]
}

// LineOf returns the synthetic source line of the instruction at ip, and
// the file of its function. Returns ("", 0) for unknown IPs.
func (p *Program) LineOf(ip uint64) (file string, line int32) {
	loc, ok := p.Loc(ip)
	if !ok {
		return "", 0
	}
	f := p.Funcs[loc.Fn]
	return f.File, f.Blocks[loc.Block].Instrs[loc.Index].Line
}

// TypeOfGlobal returns the struct type of a global array, or nil.
func (p *Program) TypeOfGlobal(idx int) *StructType {
	if idx < 0 || idx >= len(p.Globals) {
		return nil
	}
	tid := p.Globals[idx].TypeID
	if tid < 0 || tid >= len(p.Types) {
		return nil
	}
	return p.Types[tid]
}

// TypeOfAllocSite returns the struct type recorded for an allocation-site
// IP, or nil.
func (p *Program) TypeOfAllocSite(ip uint64) *StructType {
	tid, ok := p.AllocSiteType[ip]
	if !ok || tid < 0 || tid >= len(p.Types) {
		return nil
	}
	return p.Types[tid]
}

// Disasm renders the whole program as text, for debugging and golden
// tests.
func (p *Program) Disasm() string {
	var sb strings.Builder
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "func %s (f%d) file=%s\n", f.Name, f.ID, f.File)
		for _, b := range f.Blocks {
			fmt.Fprintf(&sb, "  b%d:\n", b.ID)
			for i := range b.Instrs {
				in := &b.Instrs[i]
				fmt.Fprintf(&sb, "    %#x L%-4d %s\n", in.IP, in.Line, in.String())
			}
		}
	}
	return sb.String()
}
