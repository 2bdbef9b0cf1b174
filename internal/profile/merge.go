package profile

import (
	"fmt"
	"sync"
)

// ReduceThreadProfiles merges per-thread profiles with a parallel
// reduction tree (the paper adopts the reduction-tree algorithm of
// Tallent et al. [30] to make merging scale with thread count): profiles
// are paired off and merged concurrently, halving the population each
// round, so the critical path is O(log n) merges instead of O(n).
func ReduceThreadProfiles(tps []*ThreadProfile, workers int) (*Profile, error) {
	if len(tps) == 0 {
		return nil, fmt.Errorf("no profiles to merge")
	}
	if workers <= 0 {
		workers = 4
	}
	// Lift every thread profile to a Profile leaf, in parallel.
	leaves := make([]*Profile, len(tps))
	errs := make([]error, len(tps))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, tp := range tps {
		wg.Add(1)
		go func(i int, tp *ThreadProfile) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			leaves[i], errs[i] = MergeThreadProfiles([]*ThreadProfile{tp})
		}(i, tp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for len(leaves) > 1 {
		next := make([]*Profile, (len(leaves)+1)/2)
		nerrs := make([]error, len(next))
		var rw sync.WaitGroup
		for i := 0; i < len(leaves); i += 2 {
			if i+1 == len(leaves) {
				next[i/2] = leaves[i]
				continue
			}
			rw.Add(1)
			go func(out int, a, b *Profile) {
				defer rw.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				next[out], nerrs[out] = mergeProfiles(a, b)
			}(i/2, leaves[i], leaves[i+1])
		}
		rw.Wait()
		for _, err := range nerrs {
			if err != nil {
				return nil, err
			}
		}
		leaves = next
	}
	return leaves[0], nil
}

// mergeProfiles combines two already-merged profiles.
func mergeProfiles(a, b *Profile) (*Profile, error) {
	if a.Period != b.Period {
		return nil, fmt.Errorf("profiles with different periods: %d vs %d", a.Period, b.Period)
	}
	out := &Profile{
		Period:  a.Period,
		Threads: a.Threads + b.Threads,
		Streams: make(map[StreamKey]*StreamStat, len(a.Streams)+len(b.Streams)),
	}
	// Samples: both inputs are cycle-sorted; merge-join keeps the output
	// sorted without a re-sort.
	out.Samples = make([]Sample, 0, len(a.Samples)+len(b.Samples))
	i, j := 0, 0
	for i < len(a.Samples) && j < len(b.Samples) {
		sa, sb := a.Samples[i], b.Samples[j]
		if sa.Cycle < sb.Cycle || (sa.Cycle == sb.Cycle && sa.TID <= sb.TID) {
			out.Samples = append(out.Samples, sa)
			i++
		} else {
			out.Samples = append(out.Samples, sb)
			j++
		}
	}
	out.Samples = append(out.Samples, a.Samples[i:]...)
	out.Samples = append(out.Samples, b.Samples[j:]...)

	out.NumSamples = a.NumSamples + b.NumSamples
	out.TotalLatency = a.TotalLatency + b.TotalLatency
	out.MemOps = a.MemOps + b.MemOps
	out.AppCycles = max64(a.AppCycles, b.AppCycles)
	out.OverheadCycles = max64(a.OverheadCycles, b.OverheadCycles)

	for key, st := range a.Streams {
		cp := *st
		out.Streams[key] = &cp
	}
	for key, st := range b.Streams {
		if dst, ok := out.Streams[key]; ok {
			mergeStream(dst, st)
		} else {
			cp := *st
			out.Streams[key] = &cp
		}
	}

	// Objects: identical snapshots across threads; union by ID.
	seen := make(map[int32]bool, len(a.Objects))
	out.Objects = append(out.Objects, a.Objects...)
	for _, oi := range a.Objects {
		seen[oi.ID] = true
	}
	for _, oi := range b.Objects {
		if !seen[oi.ID] {
			out.Objects = append(out.Objects, oi)
		}
	}
	sortObjects(out.Objects)
	return out, nil
}

func sortObjects(objs []ObjInfo) {
	// Insertion sort: inputs are nearly sorted (usually fully sorted).
	for i := 1; i < len(objs); i++ {
		for j := i; j > 0 && objs[j].ID < objs[j-1].ID; j-- {
			objs[j], objs[j-1] = objs[j-1], objs[j]
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
