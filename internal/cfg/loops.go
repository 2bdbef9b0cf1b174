package cfg

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/prog"
)

// LoopInfo is a program-level view of one loop, keyed uniquely across
// functions and annotated with the source-line interval of its members —
// the form in which StructSlim reports loops ("the loop at line 615-616").
type LoopInfo struct {
	Key         uint64 // see LoopKey
	FnID        int
	FnName      string
	File        string
	LoopID      int // id within the function's forest
	Depth       int
	LineLo      int32
	LineHi      int32
	IPLo        uint64
	IPHi        uint64
	Irreducible bool
}

// Name renders the paper-style identifier, e.g. "art.c:615-616".
func (li *LoopInfo) Name() string {
	if li.LineLo == li.LineHi {
		return fmt.Sprintf("%s:%d", li.File, li.LineLo)
	}
	return fmt.Sprintf("%s:%d-%d", li.File, li.LineLo, li.LineHi)
}

// LoopKey composes the program-unique key of a loop. Function ids are
// offset by one so no valid loop hashes to 0, the "not in a loop"
// sentinel.
func LoopKey(fnID, header int) uint64 {
	return uint64(fnID+1)<<32 | uint64(uint32(header))
}

// ProgramLoops is the loop structure of a whole program, with an IP →
// innermost-loop index for sample attribution.
type ProgramLoops struct {
	p       *prog.Program
	Forests []*Forest // indexed by function id
	infos   map[uint64]*LoopInfo
	// ipKey[i] is the loop key of the instruction with index i (in the
	// program-wide IP numbering), or 0 when the instruction is not inside
	// any loop.
	ipKey []uint64
}

// AnalyzeLoops builds CFGs and loop forests for every function of a
// finalized program and indexes every instruction by its innermost loop.
func AnalyzeLoops(p *prog.Program) (*ProgramLoops, error) {
	if !p.Finalized() {
		return nil, fmt.Errorf("program %s not finalized", p.Name)
	}
	pl := &ProgramLoops{
		p:     p,
		infos: make(map[uint64]*LoopInfo),
		ipKey: make([]uint64, p.NumInstrs()),
	}
	for _, f := range p.Funcs {
		g := Build(f)
		forest := FindLoops(g)
		pl.Forests = append(pl.Forests, forest)

		for _, l := range forest.Loops {
			info := &LoopInfo{
				Key:         LoopKey(f.ID, l.Header),
				FnID:        f.ID,
				FnName:      f.Name,
				File:        f.File,
				LoopID:      l.ID,
				Depth:       l.Depth,
				LineLo:      1 << 30,
				Irreducible: l.Irreducible,
				IPLo:        ^uint64(0),
			}
			for _, bid := range l.Blocks {
				for i := range f.Blocks[bid].Instrs {
					in := &f.Blocks[bid].Instrs[i]
					if in.Line > 0 && in.Line < info.LineLo {
						info.LineLo = in.Line
					}
					if in.Line > info.LineHi {
						info.LineHi = in.Line
					}
					if in.IP < info.IPLo {
						info.IPLo = in.IP
					}
					if in.IP > info.IPHi {
						info.IPHi = in.IP
					}
				}
			}
			if info.LineLo == 1<<30 {
				info.LineLo = 0
			}
			pl.infos[info.Key] = info
		}

		// Attribute each instruction to its innermost loop.
		for bid, blk := range f.Blocks {
			lid := forest.InnermostOf[bid]
			if lid < 0 {
				continue
			}
			key := LoopKey(f.ID, forest.Loops[lid].Header)
			for i := range blk.Instrs {
				idx := (blk.Instrs[i].IP - isa.TextBase) / isa.InstrBytes
				pl.ipKey[idx] = key
			}
		}
	}
	return pl, nil
}

// LoopOfIP returns the innermost loop containing the instruction at ip,
// or nil when the instruction is loop-free or unknown.
func (pl *ProgramLoops) LoopOfIP(ip uint64) *LoopInfo {
	key := pl.LoopKeyOfIP(ip)
	if key == 0 {
		return nil
	}
	return pl.infos[key]
}

// LoopKeyOfIP returns the key of the innermost loop containing the
// instruction at ip, or 0 when the instruction is loop-free or unknown.
// It reads the per-instruction index alone, so sample attribution pays
// no map lookup.
func (pl *ProgramLoops) LoopKeyOfIP(ip uint64) uint64 {
	if ip < isa.TextBase {
		return 0
	}
	idx := (ip - isa.TextBase) / isa.InstrBytes
	if idx >= uint64(len(pl.ipKey)) {
		return 0
	}
	return pl.ipKey[idx]
}

// Info returns the LoopInfo for a loop key, or nil.
func (pl *ProgramLoops) Info(key uint64) *LoopInfo { return pl.infos[key] }

// AllLoops returns every loop in the program, ordered by (FnID, LoopID):
// the forest's loop numbering, not header block order. The order is the
// canonical one for rendering, so reports and dot output are
// byte-identical across runs.
func (pl *ProgramLoops) AllLoops() []*LoopInfo {
	out := make([]*LoopInfo, 0, len(pl.infos))
	for _, li := range pl.infos {
		out = append(out, li)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FnID != out[j].FnID {
			return out[i].FnID < out[j].FnID
		}
		return out[i].LoopID < out[j].LoopID
	})
	return out
}

// NumLoops returns the total loop count of the program.
func (pl *ProgramLoops) NumLoops() int { return len(pl.infos) }
