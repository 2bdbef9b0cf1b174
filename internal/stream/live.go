package stream

import (
	"sort"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/stride"
)

// LiveStream is the online view of one merged stream: its running stride
// and the Equation 4 confidence that the stride is exact given the
// samples seen so far.
type LiveStream struct {
	IP      uint64
	Ctx     uint64
	Stride  uint64
	Samples uint64
	Latency uint64
	Writes  uint64
	// Accuracy is Equation 4's closed-form lower bound at k = Samples:
	// the probability that the running GCD already equals the true
	// stride. It grows with every sample, crossing 99% near k = 10.
	Accuracy float64
}

// LiveStruct is the online summary of one logical data structure.
type LiveStruct struct {
	Identity uint64
	Name     string
	// Ld is Equation 1's latency share of the samples seen so far.
	Ld         float64
	LatencySum uint64
	NumSamples uint64
	// InferredSize is Equation 5 over the streams' current strides; it
	// may still shrink as more samples refine the per-stream GCDs.
	InferredSize uint64
	Streams      []LiveStream
}

// LiveView is the cheap always-available summary: the hot-data ranking
// with per-stream stride state, computed from the online accumulators
// only — no raw samples, no loop folding, no report build.
type LiveView struct {
	TotalLatency uint64
	NumSamples   uint64
	Sessions     int
	Structures   []LiveStruct
}

// Live summarizes the analyzer's current state: the top structures by
// latency share with their inferred sizes and per-stream strides plus
// Equation 4 confidence. topK ≤ 0 means all structures.
func (a *Analyzer) Live(topK int) *LiveView {
	sessions := a.sortedSessions()
	view := &LiveView{Sessions: len(sessions)}

	type ident struct {
		latency uint64
		samples uint64
		name    string
		hasObj  bool
		objID   int32
	}
	idents := make(map[uint64]*ident)
	streams := make(map[profile.StreamKey]*profile.StreamStat)
	for _, s := range sessions {
		s.mu.Lock()
		view.TotalLatency += s.totalLatency
		view.NumSamples += s.numSamples
		for id, acc := range s.accums {
			it := idents[id]
			if it == nil {
				it = &ident{}
				idents[id] = it
			}
			it.latency += acc.Latency
			it.samples += acc.Samples
			if acc.HasObj && (!it.hasObj || acc.AnyObj.ID < it.objID) {
				it.name = core.IdentityDisplayName(&acc.AnyObj, a.program)
				it.hasObj = true
				it.objID = acc.AnyObj.ID
			}
		}
		s.mergeStreams(streams)
		s.mu.Unlock()
	}

	for id, it := range idents {
		ls := LiveStruct{
			Identity:   id,
			Name:       it.name,
			LatencySum: it.latency,
			NumSamples: it.samples,
		}
		if view.TotalLatency > 0 {
			ls.Ld = float64(it.latency) / float64(view.TotalLatency)
		}
		var votes []uint64
		for k, st := range streams {
			if k.Identity != id {
				continue
			}
			if st.Count >= core.MinStreamSamples && st.GCD >= stride.MinMeaningfulStride {
				votes = append(votes, st.GCD)
			}
			ls.Streams = append(ls.Streams, LiveStream{
				IP:       k.IP,
				Ctx:      k.Ctx,
				Stride:   st.GCD,
				Samples:  st.Count,
				Latency:  st.LatencySum,
				Writes:   st.Writes,
				Accuracy: stride.AccuracyLowerBound(int(st.Count)),
			})
		}
		ls.InferredSize = stride.StructSize(votes)
		sort.Slice(ls.Streams, func(i, j int) bool {
			if ls.Streams[i].IP != ls.Streams[j].IP {
				return ls.Streams[i].IP < ls.Streams[j].IP
			}
			return ls.Streams[i].Ctx < ls.Streams[j].Ctx
		})
		view.Structures = append(view.Structures, ls)
	}
	sort.Slice(view.Structures, func(i, j int) bool {
		if view.Structures[i].LatencySum != view.Structures[j].LatencySum {
			return view.Structures[i].LatencySum > view.Structures[j].LatencySum
		}
		return view.Structures[i].Identity < view.Structures[j].Identity
	})
	if topK > 0 && len(view.Structures) > topK {
		view.Structures = view.Structures[:topK]
	}
	return view
}
