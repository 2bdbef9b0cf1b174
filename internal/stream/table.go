package stream

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/profile"
)

// streamTable holds a session's live streams: an open-addressed,
// linearly probed table of entry pointers. Each entry carries its key's
// hash, so a probe skips entries by one word before it compares a key,
// and growth and deletion never rehash. Deletion shifts the rest of the
// probe run back, so no tombstones build up under MaxStreams eviction.
type streamTable struct {
	slots []*streamEntry
	n     int
}

// minStreamSlots is the table's first size. It doubles whenever an
// insert would push its load above 3/4.
const minStreamSlots = 16

// streamSeed keys the stream hash per process, as core's cell hash is
// keyed, so a client that controls IPs and contexts cannot choose keys
// that collide in every run.
var streamSeed = [3]uint64{rand.Uint64(), rand.Uint64(), rand.Uint64()}

// streamHash mixes the three key words the way the cell hash mixes two:
// the 128-bit product of seed-xored words, folded to 64 bits, once for
// (IP, context) and once more with the identity.
func streamHash(k *profile.StreamKey) uint64 {
	hi, lo := bits.Mul64(k.IP^streamSeed[0], k.Ctx^streamSeed[1])
	hi, lo = bits.Mul64(hi^lo^k.Identity, streamSeed[2])
	return hi ^ lo
}

func newStreamTable() streamTable {
	return streamTable{slots: make([]*streamEntry, minStreamSlots)}
}

// len returns the number of live streams.
func (t *streamTable) len() int { return t.n }

// find returns the entry of key k, whose hash is h, or nil and the empty
// slot where k belongs.
func (t *streamTable) find(k *profile.StreamKey, h uint64) (*streamEntry, uint64) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != nil; i = (i + 1) & mask {
		if e := t.slots[i]; e.hash == h && e.key == *k {
			return e, i
		}
	}
	return nil, i
}

// put stores e, whose key is absent, in slot i, which find returned for
// it.
func (t *streamTable) put(e *streamEntry, i uint64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]*streamEntry, 2*len(old))
		for _, o := range old {
			if o != nil {
				t.slots[t.emptySlot(o.hash)] = o
			}
		}
		i = t.emptySlot(e.hash)
	}
	t.slots[i] = e
	t.n++
}

// emptySlot returns the first empty slot on hash h's probe path.
func (t *streamTable) emptySlot(h uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	return i
}

// remove deletes e, which must be in the table, by backward shift: each
// later entry of the probe run whose home slot does not lie between the
// hole and itself moves back into the hole, so every remaining entry
// stays reachable from its home without a tombstone.
func (t *streamTable) remove(e *streamEntry) {
	mask := uint64(len(t.slots) - 1)
	hole := e.hash & mask
	for t.slots[hole] != e {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole when the hole is nearer its
		// home than j is, counting forward around the wrap.
		home := t.slots[j].hash & mask
		if (hole-home)&mask < (j-home)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = nil
	t.n--
}

// each calls fn once on every entry, in slot order.
func (t *streamTable) each(fn func(*streamEntry)) {
	for _, e := range t.slots {
		if e != nil {
			fn(e)
		}
	}
}
