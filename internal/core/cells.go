package core

import (
	"math/bits"
	"math/rand/v2"
)

// cell is one accumulation cell with its key.
type cell struct {
	key CellKey
	CellStat
}

// cellTable maps cell keys to tallies. It applies the paper's hot/cold
// split to the table itself. blocks holds each cell beside its key; a
// block is allocated at its full capacity and never moves, so a new cell
// is written once, never copied, and cells stay in insertion order. slots
// is an open-addressed index over them: a probe compares each slot's
// 32-bit hash tag and reads a 48-byte cell only when its tag matches.
// Both are pointer-free, so the garbage collector has nothing in them to
// scan. An IdentityAccum keeps one table keyed by (loop, IP, raw offset);
// a report folds each structure into a local one keyed by (region, field
// offset).
type cellTable struct {
	blocks [][]cell
	slots  []uint64
	n      int
}

const (
	// Cell blocks double from firstBlockCells up to maxBlockCells, so a
	// small table stays small and a large one wastes at most one block's
	// tail.
	firstBlockCells = 64
	maxBlockCells   = 4096
	// minSlots is the slot table's first size. It doubles whenever an
	// insert would push its load above 3/4.
	minSlots = 16

	// A slot packs the hash tag into its high 32 bits and the cell's
	// location, block<<slotIdxBits | index in block, into its low 32. The
	// tag's low bit is always set, so an empty slot is exactly 0.
	slotIdxBits = 12 // log2(maxBlockCells)
	slotLocMask = 1<<32 - 1
	slotIdxMask = 1<<slotIdxBits - 1
)

// cellSeed keys the cell hash per process, so a client that controls
// sampled IPs and addresses cannot choose keys that collide in every
// run and force long probe chains.
var cellSeed = [2]uint64{rand.Uint64(), rand.Uint64()}

// cellHash mixes a key nonlinearly: the 128-bit product of two
// seed-xored key words, folded to 64 bits.
func cellHash(k *CellKey) uint64 {
	hi, lo := bits.Mul64(k.IP^k.LoopKey^cellSeed[0], k.RawOff^cellSeed[1])
	return hi ^ lo
}

// newCellTable returns an empty table.
func newCellTable() cellTable {
	return cellTable{slots: make([]uint64, minSlots)}
}

// len returns the number of cells.
func (t *cellTable) len() int { return t.n }

// get returns the tally of key k, adding an empty cell on first sight.
func (t *cellTable) get(k CellKey) *CellStat {
	h := cellHash(&k)
	tag := h>>32 | 1
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if s := t.slots[i]; s>>32 == tag {
			if c := t.at(s); c.key == k {
				return &c.CellStat
			}
		}
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
		i = t.emptySlot(h)
	}
	loc := t.appendCell(k)
	t.slots[i] = tag<<32 | loc
	return &t.at(loc).CellStat
}

// emptySlot returns the first empty slot on hash h's probe path.
func (t *cellTable) emptySlot(h uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// at returns the cell a slot (or a bare location) points to.
func (t *cellTable) at(slot uint64) *cell {
	loc := slot & slotLocMask
	return &t.blocks[loc>>slotIdxBits][loc&slotIdxMask]
}

// appendCell stores a new cell, opening the next block when the last one
// is full, and returns its location.
func (t *cellTable) appendCell(k CellKey) uint64 {
	n := len(t.blocks)
	if n == 0 || len(t.blocks[n-1]) == cap(t.blocks[n-1]) {
		size := firstBlockCells
		if n > 0 {
			size = min(2*cap(t.blocks[n-1]), maxBlockCells)
		}
		t.blocks = append(t.blocks, make([]cell, 0, size))
		n++
	}
	blk := &t.blocks[n-1]
	*blk = append(*blk, cell{key: k})
	t.n++
	return uint64(n-1)<<slotIdxBits | uint64(len(*blk)-1)
}

// each calls fn once on every cell, in insertion order.
func (t *cellTable) each(fn func(*cell)) {
	for _, blk := range t.blocks {
		for j := range blk {
			fn(&blk[j])
		}
	}
}

// grow doubles the slot table and reinserts every cell from its blocks.
func (t *cellTable) grow() {
	t.slots = make([]uint64, 2*len(t.slots))
	for b, blk := range t.blocks {
		for j := range blk {
			h := cellHash(&blk[j].key)
			t.slots[t.emptySlot(h)] = (h>>32|1)<<32 | uint64(b)<<slotIdxBits | uint64(j)
		}
	}
}
