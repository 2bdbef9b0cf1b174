package profile

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// On disk a profile is one frame file per thread, mirroring the paper's
// profiler, which "writes the analysis result to a profile file per
// thread". A file holds the thread's samples and object table as the
// batch stream of one session, so it is also a valid POST /v1/samples
// body; its streams are rebuilt from the samples when it is read.

// profileFileName names the per-thread profile file.
func profileFileName(tid int) string { return fmt.Sprintf("profile.%d.ssb", tid) }

// WriteDir writes each thread profile into dir (created if needed).
func WriteDir(dir string, tps []*ThreadProfile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, tp := range tps {
		data, err := AppendThread(nil, tp, fmt.Sprintf("t%d", tp.TID), "")
		if err != nil {
			return fmt.Errorf("thread %d: %w", tp.TID, err)
		}
		if err := os.WriteFile(filepath.Join(dir, profileFileName(tp.TID)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ReadDir loads every profile.*.ssb in dir, in thread-id order: the
// merge keeps each stream's offset anchor from the first profile it
// sees, so the order must be the one the profiler produced, not the
// file names' (profile.10 sorts before profile.2).
func ReadDir(dir string) ([]*ThreadProfile, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "profile.*.ssb"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no profiles found in %s", dir)
	}
	var dec Decoder
	var tps []*ThreadProfile
	for _, m := range matches {
		tp, err := readFile(&dec, m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m, err)
		}
		tps = append(tps, tp)
	}
	sort.Slice(tps, func(i, j int) bool { return tps[i].TID < tps[j].TID })
	return tps, nil
}

// readFile decodes one profile file and replays its frames; Replay
// copies what it keeps, so dec's buffers serve the next file.
func readFile(dec *Decoder, path string) (*ThreadProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bs, err := dec.Decode(f)
	if err != nil {
		return nil, err
	}
	return Replay(bs)
}
