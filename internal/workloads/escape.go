package workloads

import (
	"repro/internal/prog"
)

// escape is the planted-illegal splitting fixture for the legality pass:
// a workload whose profile *looks* like a textbook splitting candidate
// but whose code makes the transform unsound.
//
//	struct packet { long seq; long ts; int len; int crc; };  // 24 bytes
//
// The hot loop hammers seq/ts and a warm loop walks len, so affinity
// analysis proposes splitting {seq,ts} away from the cold tail — exactly
// the advice StructSlim would print. But a third loop takes the address
// of packets[i].crc, obfuscates it through two Xors (a tagged-pointer
// idiom; dynamically the address is unchanged), and dereferences the
// result. The crc field's address escapes into an opaque register flow
// the static resolver cannot invert, so the legality pass must freeze
// the packet array: the split that the profile recommends would break
// this code if crc moved.
//
// A second record global adds the milder hazard: struct chk_pair
// { int lo; int hi; } is checksummed with single 8-byte loads spanning
// both fields, which is legal only while lo and hi stay in one group —
// the KEEP-TOGETHER verdict.
type escape struct{}

func init() { register(escape{}) }

func (escape) Name() string  { return "escape" }
func (escape) Suite() string { return "fixtures" }
func (escape) Description() string {
	return "Planted illegal split: hot/cold profile with an escaping field address"
}
func (escape) Parallel() bool { return false }

func (escape) Record() *prog.RecordSpec {
	return prog.MustRecord("packet",
		prog.Field{Name: "seq", Size: 8},
		prog.Field{Name: "ts", Size: 8},
		prog.Field{Name: "len", Size: 4},
		prog.Field{Name: "crc", Size: 4},
	)
}

func (w escape) Build(l *prog.PhysLayout, s Scale) (*prog.Program, []Phase, error) {
	l, err := defaultLayout(w, l)
	if err != nil {
		return nil, nil, err
	}
	n := int64(256)
	reps := int64(200)
	if s == ScaleBench {
		n, reps = 2048, 2000
	}

	b := prog.NewBuilder("escape")
	// Packet arrays per layout group (one array in AoS form).
	tids := make([]int, l.NumArrays())
	pktG := make([]int, l.NumArrays())
	for ai, st := range l.Structs {
		tids[ai] = b.Type(st)
		pktG[ai] = b.Global("packets."+st.Name, n*int64(st.Size), tids[ai])
	}
	place := func(field string) (g int, stride, off int64) {
		pl := l.Place(field)
		return pktG[pl.Arr], int64(l.Structs[pl.Arr].Size), int64(pl.Offset)
	}
	seqG, seqStride, seqOff := place("seq")
	tsG, tsStride, tsOff := place("ts")
	lenG, lenStride, lenOff := place("len")
	crcG, crcStride, crcOff := place("crc")

	// The checksum pair array, spanning-loaded by verify_checksums.
	pairTy := b.Type(&prog.StructType{
		Name: "chk_pair",
		Fields: []prog.PhysField{
			{Name: "lo", Offset: 0, Size: 4},
			{Name: "hi", Offset: 4, Size: 4},
		},
		Size: 8, Align: 4,
	})
	chkG := b.Global("chk", n*8, pairTy)

	main := b.Func("main", "escape.c")
	seqB, tsB, lenB, crcB, chkB := b.R(), b.R(), b.R(), b.R(), b.R()
	b.GAddr(seqB, seqG)
	b.GAddr(tsB, tsG)
	b.GAddr(lenB, lenG)
	b.GAddr(crcB, crcG)
	b.GAddr(chkB, chkG)

	i, r, x, y, q, key := b.R(), b.R(), b.R(), b.R(), b.R(), b.R()

	// Hot phase: the profile StructSlim sees — seq/ts dominate latency.
	b.AtLine(10)
	b.ForRange(r, 0, reps, 1, func() {
		b.AtLine(11)
		b.ForRange(i, 0, n, 1, func() {
			b.AtLine(12)
			b.Load(x, seqB, i, int(seqStride), seqOff, 8)
			b.Load(y, tsB, i, int(tsStride), tsOff, 8)
			b.Add(x, x, y)
			b.Store(x, seqB, i, int(seqStride), seqOff, 8)
		})
	})

	// Warm phase: len updates, cold relative to seq/ts.
	b.AtLine(20)
	b.ForRange(i, 0, n, 1, func() {
		b.AtLine(21)
		b.Load(x, lenB, i, int(lenStride), lenOff, 4)
		b.AddI(x, x, 1)
		b.Store(x, lenB, i, int(lenStride), lenOff, 4)
	})

	// The poison pill: &packets[i].crc round-trips through Xor before
	// the dereference. Dynamically a no-op; statically the field address
	// escapes into an opaque flow, so no split of packet is provably safe.
	b.MovI(key, 0x5aa5)
	b.AtLine(30)
	b.ForRange(i, 0, n, 1, func() {
		b.AtLine(31)
		b.MulI(q, i, crcStride)
		b.Add(q, q, crcB)
		b.AddI(q, q, crcOff) // &packets[i].crc
		b.Xor(q, q, key)     // tag the pointer
		b.Xor(q, q, key)     // untag: the same address again
		b.Load(x, q, 0, 1, 0, 4)
		b.AddI(x, x, 3)
		b.Store(x, q, 0, 1, 0, 4)
	})

	// Checksum verification: one 8-byte load covers chk[i].lo and
	// chk[i].hi together — the fields may never be separated.
	b.AtLine(40)
	b.MovI(r, 32)
	b.ForRange(i, 0, n, 1, func() {
		b.AtLine(41)
		b.Load(x, chkB, i, 8, 0, 8) // spans lo+hi
		b.Shr(y, x, r)
		b.Store(y, chkB, i, 8, 0, 4)
	})
	b.Halt()
	b.SetEntry(main)

	p, err := b.Program()
	if err != nil {
		return nil, nil, err
	}
	return p, seqPhase(main), nil
}
