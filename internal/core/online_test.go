package core

// The cell table is a hand-built hash index over blocks that never move,
// so these tests hold it to a plain Go map: driven with the same samples,
// every cell's tally and the level histogram must match the map's, and
// the report fold must visit each cell exactly once.

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/profile"
)

// cellRef is the map-based reference accumulator.
type cellRef struct {
	loops   *cfg.ProgramLoops
	cells   map[CellKey]CellStat
	objects map[int32]bool
	levels  map[uint8]uint64
	latency uint64
	samples uint64
	minObj  int32
}

func newCellRef(loops *cfg.ProgramLoops) *cellRef {
	return &cellRef{
		loops:   loops,
		cells:   make(map[CellKey]CellStat),
		objects: make(map[int32]bool),
		levels:  make(map[uint8]uint64),
		minObj:  -1,
	}
}

func (r *cellRef) add(s *profile.Sample, obj *profile.ObjInfo) {
	k := CellKey{IP: s.IP, RawOff: s.EA - obj.Base}
	if li := r.loops.LoopOfIP(s.IP); li != nil {
		k.LoopKey = li.Key
	}
	c := r.cells[k]
	c.Latency += uint64(s.Latency)
	c.Samples++
	if s.Write {
		c.Writes++
	}
	r.cells[k] = c
	r.objects[s.ObjID] = true
	r.levels[s.Level]++
	r.latency += uint64(s.Latency)
	r.samples++
	if r.minObj < 0 || obj.ID < r.minObj {
		r.minObj = obj.ID
	}
}

// check compares the accumulator with the reference.
func (r *cellRef) check(t testing.TB, a *IdentityAccum) {
	t.Helper()
	if a.NumCells() != len(r.cells) {
		t.Fatalf("NumCells = %d, want %d", a.NumCells(), len(r.cells))
	}
	seen := make(map[CellKey]bool, len(r.cells))
	a.cells.each(func(c *cell) {
		if seen[c.key] {
			t.Fatalf("cell %+v visited twice", c.key)
		}
		seen[c.key] = true
		want, ok := r.cells[c.key]
		if !ok {
			t.Fatalf("cell %+v is not in the reference", c.key)
		}
		if c.CellStat != want {
			t.Fatalf("cell %+v = %+v, want %+v", c.key, c.CellStat, want)
		}
	})
	if len(seen) != len(r.cells) {
		t.Fatalf("fold visited %d cells, want %d", len(seen), len(r.cells))
	}
	if a.Latency != r.latency || a.Samples != r.samples {
		t.Fatalf("totals = (%d, %d), want (%d, %d)", a.Latency, a.Samples, r.latency, r.samples)
	}
	if len(a.Objects) != len(r.objects) {
		t.Fatalf("objects = %v, want %v", a.Objects, r.objects)
	}
	for id := range r.objects {
		if !a.Objects[id] {
			t.Fatalf("object %d missing from %v", id, a.Objects)
		}
	}
	if r.samples > 0 && (!a.HasObj || a.AnyObj.ID != r.minObj) {
		t.Fatalf("AnyObj = %d (has %v), want %d", a.AnyObj.ID, a.HasObj, r.minObj)
	}
	top := -1
	for lvl := range r.levels {
		top = max(top, int(lvl))
	}
	if len(a.Levels) != top+1 {
		t.Fatalf("Levels has %d entries, want %d (highest level %d)", len(a.Levels), top+1, top)
	}
	for lvl, n := range a.Levels {
		if n != r.levels[uint8(lvl)] {
			t.Fatalf("Levels[%d] = %d, want %d", lvl, n, r.levels[uint8(lvl)])
		}
	}
}

// fedLevels are the data-source levels the tests feed: L1 and memory of
// the default hierarchy, a level past it, and the highest byte a pushed
// sample can carry.
var fedLevels = [4]uint8{0, 4, 7, 255}

// cellFixture is an accumulator, its reference, and the IPs and objects
// samples are drawn from: the three loads of testProgram (two inside
// loops, so their cells carry a loop key) plus two IPs outside the text.
type cellFixture struct {
	loops *cfg.ProgramLoops
	ips   []uint64
	objs  []profile.ObjInfo
	acc   *IdentityAccum
	ref   *cellRef
}

func newCellFixture(t testing.TB) *cellFixture {
	p, ipA, ipB, ipOut, _ := testProgram(t)
	loops, err := cfg.AnalyzeLoops(p)
	if err != nil {
		t.Fatal(err)
	}
	return (&cellFixture{
		loops: loops,
		ips:   []uint64{ipA, ipB, ipOut, 0x40, 1 << 63},
		objs:  []profile.ObjInfo{{ID: 3, Identity: 1, Base: 0x10000}, {ID: 5, Identity: 1, Base: 0x7ff00000}},
	}).fresh()
}

// fresh returns the fixture with an empty accumulator and reference.
func (f *cellFixture) fresh() *cellFixture {
	g := *f
	g.acc, g.ref = NewIdentityAccum(1), newCellRef(f.loops)
	return &g
}

func (f *cellFixture) add(ip, rawOff uint64, obj int, latency uint32, write bool) {
	o := &f.objs[obj%len(f.objs)]
	s := profile.Sample{IP: ip, EA: o.Base + rawOff, Latency: latency, Level: fedLevels[latency%4], Write: write, ObjID: o.ID}
	f.acc.AddSample(&s, o, f.loops)
	f.ref.add(&s, o)
}

// cellCheckpoints lists cell counts on both sides of every block end and
// every slot-table growth up to three full-size blocks, and of 4096.
func cellCheckpoints() map[int]bool {
	var edges []int
	end := 0
	for size := firstBlockCells; end < 3*maxBlockCells; size = min(2*size, maxBlockCells) {
		end += size
		edges = append(edges, end)
	}
	for slots := minSlots; 3*slots/4 <= end; slots *= 2 {
		edges = append(edges, 3*slots/4)
	}
	edges = append(edges, 4096)
	out := make(map[int]bool)
	for _, e := range edges {
		out[e-1], out[e], out[e+1] = true, true, true
	}
	return out
}

// TestIdentityAccumMatchesMap drives AddSample with all-distinct keys
// (every sample inserts) and with mostly repeated keys (three hits on
// earlier cells per insert), checking the table against the map at every
// checkpoint count.
func TestIdentityAccumMatchesMap(t *testing.T) {
	checkpoints := cellCheckpoints()
	last := 0
	for n := range checkpoints {
		last = max(last, n)
	}
	for _, hits := range []int{0, 3} {
		f := newCellFixture(t)
		rng := rand.New(rand.NewPCG(1, uint64(hits)))
		type key struct {
			ip, off uint64
			obj     int
		}
		var keys []key
		for n := 1; n <= last; n++ {
			// The n-th distinct key: offsets step like a 24-byte record's
			// fields, spread over the IPs and both objects.
			k := key{ip: f.ips[n%len(f.ips)], off: uint64(n/len(f.ips))*24 + uint64(n%3)*8, obj: n % 2}
			keys = append(keys, k)
			f.add(k.ip, k.off, k.obj, uint32(n%97), n%5 == 0)
			for h := 0; h < hits; h++ {
				k := keys[rng.IntN(len(keys))]
				f.add(k.ip, k.off, k.obj, rng.Uint32N(400), rng.IntN(3) == 0)
			}
			if checkpoints[n] {
				f.ref.check(t, f.acc)
			}
		}
	}
}

// TestIdentityAccumTagCollision inserts two keys that share a home slot
// and a hash tag, so only the key comparison behind the tag tells their
// cells apart. It searches a million scrambled keys under this process's
// seed; a random hash gives about 16 such pairs.
func TestIdentityAccumTagCollision(t *testing.T) {
	const n, idxBits = 1 << 20, 20
	key := func(i uint64) (ip, rawOff uint64) {
		x := i * 0x9e3779b97f4a7c15
		return x >> 40, x
	}
	slotBits := bits.Len(minSlots - 1)
	hs := make([]uint64, n)
	for i := range hs {
		ip, off := key(uint64(i))
		h := cellHash(&CellKey{IP: ip, RawOff: off})
		// The tag without its forced low bit, then the home slot in a
		// fresh table, then the key's index.
		hs[i] = (h>>33<<slotBits|h&(minSlots-1))<<idxBits | uint64(i)
	}
	slices.Sort(hs)
	for j := 1; j < n; j++ {
		if hs[j]>>idxBits != hs[j-1]>>idxBits {
			continue
		}
		f := newCellFixture(t)
		ip, off := key(hs[j-1] & (n - 1))
		f.add(ip, off, 0, 5, false)
		ip, off = key(hs[j] & (n - 1))
		f.add(ip, off, 0, 7, true)
		f.ref.check(t, f.acc)
		return
	}
	t.Fatal("no two of a million keys share a tag and a home slot")
}

// FuzzIdentityAccum holds the cell table to the map on arbitrary sample
// streams. Each 4-byte op is one sample (IP choice, object and write flag
// in byte 0, raw offset in bytes 1–2, latency in byte 3), or, with byte
// 0's top bit set, a burst of (byte 3 + 1) × 16 distinct new keys, which
// carries a small input across block ends and table growths.
func FuzzIdentityAccum(f *testing.F) {
	f.Add([]byte{0, 8, 0, 3, 1, 8, 0, 4, 0, 8, 0, 5})
	f.Add([]byte{0x80, 1, 0, 3, 0x81, 1, 0, 3, 0x02, 16, 0, 9})
	f.Add([]byte{0x80, 0, 0, 0xff, 0x40, 0, 0, 1, 0x13, 0xff, 0xff, 7})
	base := newCellFixture(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fx := base.fresh()
		burst := uint64(0)
		for ; len(data) >= 4; data = data[4:] {
			op, off, lat := data[0], uint64(binary.LittleEndian.Uint16(data[1:3])), data[3]
			ip := fx.ips[int(op&7)%len(fx.ips)]
			if op&0x80 == 0 {
				fx.add(ip, off, int(op>>4&1), uint32(lat), op&0x40 != 0)
				continue
			}
			burst++
			for i := uint64(0); i < (uint64(lat)+1)*16; i++ {
				fx.add(ip, burst<<32|off<<16|i*8, int(i&1), uint32(i), i%3 == 0)
			}
		}
		fx.ref.check(t, fx.acc)
	})
}

// TestBuildReportFoldMatchesMap pushes thousands of distinct (region,
// field offset) pairs, split over two parts, through BuildReport, so the
// fold's bucket table grows through many slot tables and blocks, and
// holds the field and loop tables to a map over the same samples.
func TestBuildReportFoldMatchesMap(t *testing.T) {
	const size = 4096
	f := newCellFixture(t)
	p, _, _, _, _ := testProgram(t)
	ips := append([]uint64(nil), f.ips[:3]...)
	for i := uint64(0); i < 13; i++ {
		ips = append(ips, 0x100+8*i) // below the text: one pseudo-region each
	}
	obj := profile.ObjInfo{ID: 3, Name: "arr", Identity: 1, Base: 0x10000, TypeID: -1}
	parts := []*IdentityAccum{NewIdentityAccum(1), NewIdentityAccum(1)}
	type bucketKey struct{ region, off uint64 }
	buckets := make(map[bucketKey]bool)
	fields := make(map[uint64]CellStat)
	loopLat := make(map[uint64]uint64)
	var total uint64
	rng := rand.New(rand.NewPCG(5, 11))
	for n := 0; n < 40_000; n++ {
		ip := ips[rng.IntN(len(ips))]
		off := 8 * rng.Uint64N(size/8)
		s := profile.Sample{
			IP: ip, EA: obj.Base + rng.Uint64N(4)*size + off,
			Latency: 1 + rng.Uint32N(300), Write: rng.IntN(4) == 0, ObjID: obj.ID,
		}
		parts[n%2].AddSample(&s, &obj, f.loops)
		loop := f.loops.LoopKeyOfIP(ip)
		region := loop
		if region == 0 {
			region = ip | 1<<63
		}
		buckets[bucketKey{region, off}] = true
		c := fields[off]
		c.Latency += uint64(s.Latency)
		c.Samples++
		if s.Write {
			c.Writes++
		}
		fields[off] = c
		loopLat[loop] += uint64(s.Latency)
		total += uint64(s.Latency)
	}
	if len(buckets) < 3*maxBlockCells/2 {
		t.Fatalf("%d buckets: too few to grow the fold's table past its largest block", len(buckets))
	}

	streams := map[profile.StreamKey]*profile.StreamStat{
		{IP: ips[0], Identity: 1}: {IP: ips[0], Identity: 1, Count: 10, GCD: size, FirstEA: obj.Base, FirstObjID: obj.ID},
	}
	objOf := func(int32) *profile.ObjInfo { return &obj }
	rep, err := BuildReport(ReportMeta{Program: "unit", TotalLatency: total, NumSamples: 40_000, Threads: 2},
		[]map[uint64]*IdentityAccum{{1: parts[0]}, {1: parts[1]}}, streams, objOf, p, f.loops, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Structures) != 1 || rep.Structures[0].InferredSize != size {
		t.Fatalf("report has %d structures; want one of inferred size %d", len(rep.Structures), size)
	}
	sr := rep.Structures[0]
	if len(sr.Fields) != len(fields) {
		t.Fatalf("field table has %d rows, want %d", len(sr.Fields), len(fields))
	}
	for i, fr := range sr.Fields {
		want := fields[fr.Offset]
		if i > 0 && fr.Offset <= sr.Fields[i-1].Offset {
			t.Fatalf("field rows out of order at offset %d", fr.Offset)
		}
		if got := (CellStat{Latency: fr.LatencySum, Samples: fr.Samples, Writes: fr.Writes}); got != want {
			t.Fatalf("field offset %d = %+v, want %+v", fr.Offset, got, want)
		}
	}
	if len(sr.Loops) != len(loopLat) {
		t.Fatalf("loop table has %d rows, want %d", len(sr.Loops), len(loopLat))
	}
	for _, lr := range sr.Loops {
		var key uint64
		if lr.Loop != nil {
			key = lr.Loop.Key
		}
		if lr.LatencySum != loopLat[key] {
			t.Errorf("loop %s: latency %d, want %d", lr.Name, lr.LatencySum, loopLat[key])
		}
	}
}
