package profile

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// buildThreadProfiles makes two thread profiles whose streams overlap on
// one key (so merging exercises the GCD combine) and whose object tables
// overlap on one object (so the merged table must deduplicate).
func buildThreadProfiles() []*ThreadProfile {
	tp0 := NewThreadProfile(0, 10_000)
	tp0.Objects = []ObjInfo{
		{ID: 1, Heap: true, Name: "f1_layer", Base: 0x10000, Size: 560_000, Identity: 11, AllocIP: 0x400100, TypeID: 3},
		{ID: 2, Name: "bus", Base: 0x900000, Size: 4096, Identity: 22},
	}
	tp0.AppCycles, tp0.OverheadCycles, tp0.MemOps = 1000, 17, 500
	for k := 0; k < 6; k++ {
		tp0.Add(Sample{
			TID: 0, IP: 0x400200, EA: uint64(0x10000 + k*56), Latency: uint32(30 + k),
			Level: 2, Write: k%2 == 0, Cycle: uint64(100 * k), ObjID: 1, Ctx: 7,
		}, 11)
	}

	tp1 := NewThreadProfile(1, 10_000)
	tp1.Objects = []ObjInfo{
		{ID: 1, Heap: true, Name: "f1_layer", Base: 0x10000, Size: 560_000, Identity: 11, AllocIP: 0x400100, TypeID: 3},
		{ID: 3, Heap: true, Name: "arcs", Base: 0x800000, Size: 1 << 20, Identity: 33, AllocIP: 0x400800},
	}
	tp1.AppCycles, tp1.OverheadCycles, tp1.MemOps = 900, 40, 400
	for k := 0; k < 4; k++ {
		// Same stream key as thread 0 (IP/Ctx/Identity) at a coarser
		// stride, plus a second stream on another object.
		tp1.Add(Sample{
			TID: 1, IP: 0x400200, EA: uint64(0x10000 + k*112), Latency: 80,
			Level: 3, Cycle: uint64(50 + 100*k), ObjID: 1, Ctx: 7,
		}, 11)
		tp1.Add(Sample{
			TID: 1, IP: 0x400300, EA: uint64(0x800000 + k*24), Latency: 12,
			Cycle: uint64(60 + 100*k), ObjID: 3, Ctx: 9,
		}, 33)
	}
	return []*ThreadProfile{tp0, tp1}
}

// TestProfileRoundTripThroughThreadFiles: the per-thread write/read path
// composed with the merge yields the same profile as merging in memory —
// the full offline workflow (threads dump, analyzer loads and merges).
func TestProfileRoundTripThroughThreadFiles(t *testing.T) {
	tps := buildThreadProfiles()
	want, err := MergeThreadProfiles(tps)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := WriteDir(dir, tps); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeThreadProfiles(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merge-after-reload differs from in-memory merge:\n got %+v\nwant %+v", got, want)
	}

	// Empty stream map must decode usable, not nil.
	empty := NewThreadProfile(5, 100)
	if err := WriteDir(dir, []*ThreadProfile{empty}); err != nil {
		t.Fatal(err)
	}
	all, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range all {
		if tp.Streams == nil {
			t.Fatal("decoded thread profile has nil stream map")
		}
	}
}

// TestReadDirThreadOrder: twelve thread profiles written and read back
// come in thread-id order, not file-name order (profile.10.ssb sorts
// before profile.2.ssb), so the merge — which anchors each stream's
// offsets at the first profile it sees — equals the in-memory merge.
func TestReadDirThreadOrder(t *testing.T) {
	var tps []*ThreadProfile
	for tid := 0; tid < 12; tid++ {
		tp := NewThreadProfile(tid, 1000)
		tp.Objects = []ObjInfo{{ID: 1, Name: "arr", Base: 0x1000, Size: 4096, Identity: 11}}
		for k := 0; k < 3; k++ {
			tp.Add(Sample{
				TID: int32(tid), IP: 0x400200, EA: uint64(0x1010 + 0x40*tid + 0x400*k),
				Latency: 10, ObjID: 1,
			}, 11)
		}
		tps = append(tps, tp)
	}
	want, err := ReduceThreadProfiles(tps, 0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := WriteDir(dir, tps); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range loaded {
		if tp.TID != i {
			t.Fatalf("profile %d has TID %d, want thread-id order", i, tp.TID)
		}
	}
	got, err := ReduceThreadProfiles(loaded, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merge of the reloaded profiles differs from the originals':\n got %+v\nwant %+v", got, want)
	}
}

// TestWriteDirReplacesStaleProfiles: writing one thread's profile into a
// directory that holds an earlier run's four leaves exactly that one
// for ReadDir; a file that is not a profile survives.
func TestWriteDirReplacesStaleProfiles(t *testing.T) {
	threads := func(n int, ip uint64) []*ThreadProfile {
		var tps []*ThreadProfile
		for tid := 0; tid < n; tid++ {
			tp := NewThreadProfile(tid, 3000)
			tp.Objects = []ObjInfo{{ID: 1, Name: "arr", Base: 0x1000, Size: 4096, Identity: 11}}
			for k := 0; k < 3; k++ {
				tp.Add(Sample{
					TID: int32(tid), IP: ip, EA: uint64(0x1000 + 0x40*tid + 0x100*k),
					Latency: 10, ObjID: 1,
				}, 11)
			}
			tps = append(tps, tp)
		}
		return tps
	}
	dir := t.TempDir()
	other := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(other, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteDir(dir, threads(4, 0x400200)); err != nil {
		t.Fatal(err)
	}
	want := threads(1, 0x400300)
	if err := WriteDir(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReadDir returned %d profiles, want exactly the 1 written last", len(got))
	}
	if data, err := os.ReadFile(other); err != nil || string(data) != "keep" {
		t.Errorf("unrelated file: %q, %v; want it untouched", data, err)
	}
}

// TestReadDirNoProfiles: a missing directory and an existing-but-empty
// directory both fail with an error naming the directory, not a nil
// slice the caller would merge into an empty profile.
func TestReadDirNoProfiles(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "does-not-exist")
	if _, err := ReadDir(missing); err == nil {
		t.Error("ReadDir on a missing directory succeeded")
	} else if !strings.Contains(err.Error(), missing) {
		t.Errorf("error %q does not name the directory", err)
	}

	empty := t.TempDir()
	if _, err := ReadDir(empty); err == nil || !strings.Contains(err.Error(), "no profiles found") {
		t.Errorf("ReadDir on an empty directory: got %v, want a no-profiles error", err)
	}
}

// TestReadDirTruncatedFile: a profile file cut short mid-frame (a
// crashed profiled run) must fail decoding with an error that names the
// bad file, and must not surface the intact profiles as a partial set.
func TestReadDirTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDir(dir, buildThreadProfiles()); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, profileFileName(1))
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Error("ReadDir with a truncated profile succeeded")
	} else if !strings.Contains(err.Error(), victim) {
		t.Errorf("error %q does not name the truncated file", err)
	}
}

// TestWriteDirRefusesLongName: an object name longer than the decoder
// takes makes WriteDir fail with an error naming the object, instead of
// writing a file ReadDir refuses.
func TestWriteDirRefusesLongName(t *testing.T) {
	tps := buildThreadProfiles()
	tps[1].Objects = append(tps[1].Objects, ObjInfo{ID: 9, Name: strings.Repeat("g", 5000), Base: 0xa00000, Size: 64, Identity: 99})
	err := WriteDir(t.TempDir(), tps)
	if err == nil || !strings.Contains(err.Error(), "object 9") || !strings.Contains(err.Error(), "5000 bytes") {
		t.Errorf("WriteDir with a 5000-byte name: got %v, want an error naming object 9 and its 5000 bytes", err)
	}
}

// TestReadDirMismatchedFrames: a file whose frames disagree on the TID or
// the period is refused, with an error naming the file.
func TestReadDirMismatchedFrames(t *testing.T) {
	tps := buildThreadProfiles()
	for _, tc := range []struct {
		name   string
		mutate func(b *Batch)
	}{
		{"tid", func(b *Batch) { b.TID = 7 }},
		{"period", func(b *Batch) { b.Period = 20_000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs := Split(tps[0], "t0", "", 2)
			tc.mutate(&bs[len(bs)-1])
			data, err := AppendBatches(nil, bs)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, profileFileName(0))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadDir(dir); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.name) {
				t.Errorf("ReadDir: got %v, want an error naming %s and the %s", err, path, tc.name)
			}
		})
	}
}

// TestWriteDirCreateFailure: WriteDir into a path whose parent is a
// regular file must report the MkdirAll failure instead of panicking or
// silently writing nothing.
func TestWriteDirCreateFailure(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteDir(filepath.Join(blocker, "profiles"), buildThreadProfiles()); err == nil {
		t.Error("WriteDir under a regular file succeeded")
	}
}

// TestReadDirMixedPeriods: profiles dumped by runs with different
// sampling periods load fine individually but must be rejected by the
// merge — combining them would mis-scale every extrapolated count.
func TestReadDirMixedPeriods(t *testing.T) {
	tps := buildThreadProfiles()
	odd := NewThreadProfile(2, 20_000) // different period from the others
	odd.Add(Sample{TID: 2, IP: 0x400400, EA: 0x10000, Latency: 9, Cycle: 5, ObjID: 1, Ctx: 7}, 11)
	dir := t.TempDir()
	if err := WriteDir(dir, append(tps, odd)); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 {
		t.Fatalf("loaded %d profiles, want 3", len(loaded))
	}
	if _, err := ReduceThreadProfiles(loaded, 2); err == nil || !strings.Contains(err.Error(), "different periods") {
		t.Errorf("merging mixed-period profiles: got %v, want a different-periods error", err)
	}
}
