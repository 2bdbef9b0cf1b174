package stream

import (
	"math/rand/v2"
	"testing"

	"repro/internal/profile"
)

// TestStreamTableMatchesMap drives a session's stream table with random
// keys from 8 seeds and holds it to a map after every sample, while the
// 144 possible keys fill it from its first 16 slots through four growths
// to 256. The hash seed differs per process, so the test asserts only
// that some probe run wrapped around the table's end.
func TestStreamTableMatchesMap(t *testing.T) {
	objs := []profile.ObjInfo{
		{ID: 0, Identity: 100, Base: 0x10000, Size: 1 << 16, TypeID: -1},
		{ID: 1, Identity: 101, Base: 0x20000, Size: 1 << 16, TypeID: -1},
		{ID: 2, Identity: 102, Base: 0x30000, Size: 1 << 16, TypeID: -1},
	}
	wrapped := 0
	for seed := uint64(1); seed <= 8; seed++ {
		a, err := New(nil, Config{DropSamples: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Ingest(Batch{Session: "s", Period: 100, Objects: objs}); err != nil {
			t.Fatal(err)
		}
		s := a.shards[0].sessions["s"]

		ref := make(map[profile.StreamKey]*profile.StreamStat)
		rng := rand.New(rand.NewPCG(seed, 7))
		for n := 0; n < 10_000; n++ {
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
			}
			st.Observe(sm.EA, sm.Latency, sm.Write, sm.ObjID)

			s.mu.Lock()
			a.addSample(s, &sm)
			s.mu.Unlock()
			wrapped += checkStreams(t, s, ref)
			if t.Failed() {
				t.Fatalf("seed %d, sample %d", seed, n)
			}
		}
		if got := len(s.streams.slots); got != 256 {
			t.Errorf("seed %d: table ends at %d slots, want 256 for 144 streams", seed, got)
		}
	}
	if wrapped == 0 {
		t.Error("no entry ever sat past the table's end from its home slot; the wrap-around went untested")
	}
}

// checkStreams compares the session's streams with the reference and
// returns the number of entries whose probe run wrapped around the
// table's end.
func checkStreams(t *testing.T, s *session, ref map[profile.StreamKey]*profile.StreamStat) int {
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
	return wrapped
}
