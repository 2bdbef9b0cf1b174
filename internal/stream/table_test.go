package stream

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/profile"
)

// TestStreamTableMatchesMap drives a session's stream table and LRU list
// with 100k samples over random keys at every MaxStreams from 1 to 8 and
// holds them to a map plus a list after every sample. At most nine
// streams live in the table's first 16 slots, so probe runs wrap around
// the end and evictions shift entries back across the wrap.
func TestStreamTableMatchesMap(t *testing.T) {
	objs := []profile.ObjInfo{
		{ID: 0, Identity: 100, Base: 0x10000, Size: 1 << 16, TypeID: -1},
		{ID: 1, Identity: 101, Base: 0x20000, Size: 1 << 16, TypeID: -1},
		{ID: 2, Identity: 102, Base: 0x30000, Size: 1 << 16, TypeID: -1},
	}
	wrapped := 0
	for maxStreams := 1; maxStreams <= 8; maxStreams++ {
		a, err := New(nil, Config{MaxStreams: maxStreams, DropSamples: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Ingest(Batch{Session: "s", Period: 100, Objects: objs}); err != nil {
			t.Fatal(err)
		}
		s := a.shards[0].sessions["s"]

		ref := make(map[profile.StreamKey]*profile.StreamStat)
		var lru []profile.StreamKey // most recently updated first
		var evicted uint64
		rng := rand.New(rand.NewPCG(uint64(maxStreams), 7))
		for n := 0; n < 100_000; n++ {
			obj := int32(rng.IntN(len(objs)+1)) - 1 // -1: unattributed
			sm := profile.Sample{
				IP:      0x400 + 4*rng.Uint64N(12),
				Ctx:     rng.Uint64N(3),
				EA:      0x10000*uint64(obj+1) + 8*rng.Uint64N(64),
				Latency: 1 + rng.Uint32N(50),
				Write:   rng.IntN(3) == 0,
				ObjID:   obj,
			}
			key := profile.StreamKey{IP: sm.IP, Ctx: sm.Ctx}
			if obj >= 0 {
				key.Identity = objs[obj].Identity
			}
			st := ref[key]
			if st == nil {
				st = &profile.StreamStat{IP: sm.IP, Identity: key.Identity}
				ref[key] = st
				if len(lru) == maxStreams {
					delete(ref, lru[len(lru)-1])
					lru = lru[:len(lru)-1]
					evicted++
				}
			} else {
				lru = slices.DeleteFunc(lru, func(k profile.StreamKey) bool { return k == key })
			}
			lru = slices.Insert(lru, 0, key)
			st.Observe(sm.EA, sm.Latency, sm.Write, sm.ObjID)

			s.mu.Lock()
			a.addSample(s, &sm)
			s.mu.Unlock()
			wrapped += checkStreams(t, s, ref, lru)
			if t.Failed() {
				t.Fatalf("MaxStreams %d, sample %d", maxStreams, n)
			}
		}
		if s.evictedStreams != evicted {
			t.Errorf("MaxStreams %d: %d evictions, want %d", maxStreams, s.evictedStreams, evicted)
		}
	}
	if wrapped == 0 {
		t.Error("no entry ever sat past the table's end from its home slot; the wrap-around went untested")
	}
}

// checkStreams compares the session's streams with the reference and
// returns the number of entries whose probe run wrapped around the
// table's end.
func checkStreams(t *testing.T, s *session, ref map[profile.StreamKey]*profile.StreamStat, lru []profile.StreamKey) int {
	t.Helper()
	if s.streams.len() != len(ref) {
		t.Errorf("table holds %d streams, want %d", s.streams.len(), len(ref))
	}
	occupied, wrapped := 0, 0
	mask := uint64(len(s.streams.slots) - 1)
	for i, e := range s.streams.slots {
		if e == nil {
			continue
		}
		occupied++
		if e.hash&mask > uint64(i) {
			wrapped++
		}
		if e.hash != streamHash(&e.key) {
			t.Errorf("entry %+v carries hash %#x, want %#x", e.key, e.hash, streamHash(&e.key))
		}
	}
	if occupied != s.streams.len() {
		t.Errorf("%d occupied slots, table counts %d", occupied, s.streams.len())
	}
	for k, want := range ref {
		e, _ := s.streams.find(&k, streamHash(&k))
		if e == nil {
			t.Errorf("stream %+v is not found", k)
			continue
		}
		if e.key != k || e.stat != *want {
			t.Errorf("stream %+v = %+v, want %+v", k, e.stat, *want)
		}
	}
	i := 0
	for e := s.lruHead; e != nil; e = e.next {
		if i >= len(lru) || e.key != lru[i] {
			t.Errorf("LRU position %d holds %+v, want the order %v", i, e.key, lru)
			break
		}
		i++
	}
	if i != len(lru) && !t.Failed() {
		t.Errorf("LRU list has %d streams, want %d", i, len(lru))
	}
	return wrapped
}
