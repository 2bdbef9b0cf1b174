// Package progfuzz fuzzes the static analyses and the simulation engines
// from one program generator. It holds only tests: gen decodes a fuzz
// input into a loop-nest program and its phases, and each Fuzz function
// holds one analysis, or the engines' agreement, to its property on the
// programs gen builds. TestSeedOutcomes checks that every seed reaches
// the outcome its name promises, so the seeds keep covering the paths
// they were written for.
package progfuzz

import (
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/vm"
)

// The generated program has two globals, two functions and two phases.
// recs is an array of recCount records of type rec; slots holds eight
// spilled pointers. The set-up phase runs setup on one thread: when the
// body reloads a slot, setup first points every slot at recs[0], so no
// reload is ever wild; otherwise it retires no access. Then body runs on
// one thread or four, each with its thread index in r1 and the thread
// count in r2.
//
// The input is a header byte, then (op, arg) byte pairs, 64 bytes at
// most. header&fourThreads runs four body threads. An op byte's low three
// bits pick the operation, and its high five bits the index register idx
// of an access: sel%(open loops+2) is ixTid for the thread index, ixNone
// for none, and ixIV+k for the IV of the k-th open loop, outermost first.
//
//	opLoad, opStore      field arg%4 of record idx
//	opLoop               open a loop of arg%7+2 trips at step arg%3+1,
//	                     unless 3 loops are open or 6 were opened
//	opClose              close the innermost open loop
//	opLoadAt, opStoreAt  8 bytes at recs + idx*8*(arg%16) + 8*(arg/16);
//	                     a scale of 0 is ×1 to the ISA
//	opPointer            q = &recs[idx], plus the offset of field arg>>6
//	                     when arg&4; arg&1 Xors q with a key and back,
//	                     arg&2 spills q to slot (arg>>3)%8; then a 4-byte
//	                     load through q
//	opReload             q = slot (arg>>3)%8, then an 8-byte load at
//	                     q+8*(arg&1)
//
// An IV is at most 7*3 and a thread index at most 3, so every access stays
// inside its global: the furthest reaches 21*120+120+8 bytes into recs,
// below recCount*24, and a reloaded pointer is an element or interior
// pointer, dereferenced at most 16 bytes past field crc's offset.
const (
	opLoad = iota
	opStore
	opLoop
	opClose
	opLoadAt
	opStoreAt
	opPointer
	opReload

	ixTid  = 0
	ixNone = 1
	ixIV   = 2

	fourThreads = 1

	maxInput = 64
	recCount = 128
	numSlots = 8
	xorKey   = 0x33
)

// The offsets and sizes of the fields of rec.
var (
	fieldOff = [4]int64{0, 8, 16, 20}
	fieldSz  = [4]int{8, 8, 4, 4}
)

// recType is rec, the record type of recs: a@0/8 b@8/8 len@16/4 crc@20/4.
func recType() *prog.StructType {
	return &prog.StructType{
		Name: "rec",
		Size: 24,
		Fields: []prog.PhysField{
			{Name: "a", Offset: 0, Size: 8},
			{Name: "b", Offset: 8, Size: 8},
			{Name: "len", Offset: 16, Size: 4},
			{Name: "crc", Offset: 20, Size: 4},
		},
	}
}

// gen decodes data into a program and its two phases, or returns a nil
// program when data is too short or too long. demote emits every body
// store as a load of the same address.
func gen(data []byte, demote bool) (*prog.Program, [][]vm.ThreadSpec) {
	if len(data) < 3 || len(data) > maxInput {
		return nil, nil
	}
	threads := 1
	if data[0]&fourThreads != 0 {
		threads = 4
	}
	pairs := data[1:]

	b := prog.NewBuilder("fuzz")
	recs := b.Global("recs", recCount*24, b.Type(recType()))
	slots := b.Global("slots", numSlots*8, -1)

	body := b.Func("body", "fuzz.c")
	base, sb, x, q, key := b.R(), b.R(), b.R(), b.R(), b.R()
	b.GAddr(base, recs)
	b.GAddr(sb, slots)
	b.MovI(key, xorKey)
	store := func(val, at, idx isa.Reg, scale int, disp int64, size int) {
		if demote {
			b.Load(x, at, idx, scale, disp, size)
		} else {
			b.Store(val, at, idx, scale, disp, size)
		}
	}
	var ivs []isa.Reg
	loops, pos, reloads := 0, 0, false
	var walk func(depth int)
	walk = func(depth int) {
		for pos+1 < len(pairs) {
			code, arg := pairs[pos], pairs[pos+1]
			pos += 2
			idx := isa.ArgReg0
			switch sel := int(code>>3) % (len(ivs) + 2); {
			case sel == ixNone:
				idx = isa.RZ
			case sel >= ixIV:
				idx = ivs[sel-ixIV]
			}
			fi := arg % 4
			switch code % 8 {
			case opLoad:
				b.Load(x, base, idx, 24, fieldOff[fi], fieldSz[fi])
			case opStore:
				store(x, base, idx, 24, fieldOff[fi], fieldSz[fi])
			case opLoop:
				if depth >= 3 || loops >= 6 {
					continue
				}
				loops++
				iv := b.R()
				trips := int64(arg%7) + 2
				step := int64(arg%3) + 1
				ivs = append(ivs, iv)
				b.ForRange(iv, 0, trips*step, step, func() { walk(depth + 1) })
				ivs = ivs[:len(ivs)-1]
			case opClose:
				if depth > 0 {
					return
				}
			case opLoadAt:
				b.Load(x, base, idx, int(arg%16)*8, int64(arg/16)*8, 8)
			case opStoreAt:
				store(x, base, idx, int(arg%16)*8, int64(arg/16)*8, 8)
			case opPointer:
				b.MulI(q, idx, 24)
				b.Add(q, q, base)
				if arg&4 != 0 {
					b.AddI(q, q, fieldOff[arg>>6])
				}
				if arg&1 != 0 {
					b.Xor(q, q, key) // tag …
					b.Xor(q, q, key) // … and untag: the same address
				}
				if arg&2 != 0 {
					store(q, sb, isa.RZ, 1, int64((arg>>3)%numSlots)*8, 8)
				}
				b.Load(x, q, isa.RZ, 1, 0, 4)
			case opReload:
				reloads = true
				b.Load(q, sb, isa.RZ, 1, int64((arg>>3)%numSlots)*8, 8)
				b.Load(x, q, isa.RZ, 1, int64(arg&1)*8, 8)
			}
		}
	}
	walk(0)
	b.Ret()

	setup := b.Func("setup", "fuzz.c")
	if reloads {
		base, sb = b.R(), b.R()
		b.GAddr(base, recs)
		b.GAddr(sb, slots)
		for s := int64(0); s < numSlots; s++ {
			b.Store(base, sb, isa.RZ, 1, s*8, 8)
		}
	}
	b.Ret()
	b.SetEntry(setup)

	p, err := b.Program()
	if err != nil {
		return nil, nil
	}
	phases := [][]vm.ThreadSpec{{{Fn: setup}}, nil}
	for tid := 0; tid < threads; tid++ {
		phases[1] = append(phases[1], vm.ThreadSpec{Fn: body, Args: []int64{int64(tid), int64(threads)}, Core: tid})
	}
	return p, phases
}
