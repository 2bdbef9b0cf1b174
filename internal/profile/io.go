package profile

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The on-disk format is a gob stream of ThreadProfile, one file per
// thread, mirroring the paper's profiler which "writes the analysis result
// to a profile file per thread".

// Write serializes one thread profile.
func (tp *ThreadProfile) Write(w io.Writer) error {
	return gob.NewEncoder(w).Encode(tp)
}

// ReadThreadProfile deserializes one thread profile.
func ReadThreadProfile(r io.Reader) (*ThreadProfile, error) {
	tp := &ThreadProfile{}
	if err := gob.NewDecoder(r).Decode(tp); err != nil {
		return nil, fmt.Errorf("decoding thread profile: %w", err)
	}
	if tp.Streams == nil {
		tp.Streams = make(map[StreamKey]*StreamStat)
	}
	return tp, nil
}

// WriteProfile serializes a merged whole-program profile. Merged
// profiles are what the offline analyzer consumes, so persisting them
// lets one profiled run feed many analysis sessions.
func WriteProfile(w io.Writer, p *Profile) error {
	return gob.NewEncoder(w).Encode(p)
}

// ReadProfile deserializes a merged whole-program profile.
func ReadProfile(r io.Reader) (*Profile, error) {
	p := &Profile{}
	if err := gob.NewDecoder(r).Decode(p); err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	if p.Streams == nil {
		p.Streams = make(map[StreamKey]*StreamStat)
	}
	return p, nil
}

// profileFileName names the per-thread profile file.
func profileFileName(tid int) string { return fmt.Sprintf("profile.%d.gob", tid) }

// WriteDir writes each thread profile into dir (created if needed).
func WriteDir(dir string, tps []*ThreadProfile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, tp := range tps {
		f, err := os.Create(filepath.Join(dir, profileFileName(tp.TID)))
		if err != nil {
			return err
		}
		if err := tp.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// ReadDir loads every profile.*.gob in dir, in thread-id order: the
// merge keeps each stream's offset anchor from the first profile it
// sees, so the order must be the one the profiler produced, not the
// file names' (profile.10 sorts before profile.2).
func ReadDir(dir string) ([]*ThreadProfile, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "profile.*.gob"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no profiles found in %s", dir)
	}
	var tps []*ThreadProfile
	for _, m := range matches {
		f, err := os.Open(m)
		if err != nil {
			return nil, err
		}
		tp, err := ReadThreadProfile(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m, err)
		}
		tps = append(tps, tp)
	}
	sort.Slice(tps, func(i, j int) bool { return tps[i].TID < tps[j].TID })
	return tps, nil
}
