package stream_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/stream"
	"repro/internal/workloads"
)

func TestIngestValidation(t *testing.T) {
	a, err := stream.New(nil, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest(stream.Batch{Period: 100}); err == nil {
		t.Error("batch without session should be rejected")
	}
	if err := a.Ingest(stream.Batch{Session: "s"}); err == nil {
		t.Error("batch without period should be rejected")
	}
	if err := a.Ingest(stream.Batch{Session: "s", Period: 100}); err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest(stream.Batch{Session: "s", Period: 200}); err == nil {
		t.Error("session period change should be rejected")
	}
	if err := a.Ingest(stream.Batch{Session: "s2", Period: 200}); err == nil {
		t.Error("cross-session period mismatch should be rejected")
	}
	if a.Period() != 100 {
		t.Errorf("period = %d, want 100", a.Period())
	}
}

// synthBatch builds a batch touching nStreams distinct instruction
// streams over nObjs objects with distinct identities.
func synthBatch(session string, nStreams, nObjs, samplesPerStream int) stream.Batch {
	b := stream.Batch{Session: session, Process: "p", Period: 1000}
	for o := 0; o < nObjs; o++ {
		b.Objects = append(b.Objects, profile.ObjInfo{
			ID:       int32(o),
			Name:     fmt.Sprintf("obj%d", o),
			Base:     uint64(0x10000 * (o + 1)),
			Size:     1 << 12,
			Identity: uint64(100 + o),
			TypeID:   -1,
		})
	}
	cycle := uint64(0)
	for s := 0; s < nStreams; s++ {
		obj := b.Objects[s%nObjs]
		for i := 0; i < samplesPerStream; i++ {
			cycle++
			b.Samples = append(b.Samples, profile.Sample{
				IP:      uint64(0x400 + s*4),
				EA:      obj.Base + uint64(i)*24,
				Latency: 20,
				Cycle:   cycle,
				ObjID:   obj.ID,
			})
		}
	}
	return b
}

func TestStreamEviction(t *testing.T) {
	a, err := stream.New(nil, stream.Config{MaxStreams: 4, MaxIdentities: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest(synthBatch("s", 16, 8, 6)); err != nil {
		t.Fatal(err)
	}
	infos := a.Sessions()
	if len(infos) != 1 {
		t.Fatalf("got %d sessions", len(infos))
	}
	si := infos[0]
	if si.Streams > 4 {
		t.Errorf("streams = %d, want <= 4", si.Streams)
	}
	if si.Identities > 2 {
		t.Errorf("identities = %d, want <= 2", si.Identities)
	}
	if si.EvictedStreams == 0 || si.EvictedIdentities == 0 {
		t.Errorf("expected evictions, got streams=%d identities=%d",
			si.EvictedStreams, si.EvictedIdentities)
	}
	// The analyzer stays usable after eviction (approximate mode).
	if lv := a.Live(0); len(lv.Structures) == 0 {
		t.Error("live view empty after eviction")
	}
}

func TestEvictionRecurringStreamSurvives(t *testing.T) {
	// A hot stream interleaved with many cold ones must keep accumulating
	// (LRU keeps recently-updated streams).
	a, err := stream.New(nil, stream.Config{MaxStreams: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := stream.Batch{Session: "s", Period: 1000}
	b.Objects = []profile.ObjInfo{{ID: 0, Name: "hot", Base: 0x10000, Size: 1 << 16, Identity: 1, TypeID: -1}}
	for i := 0; i < 50; i++ {
		// Hot stream sample, then a one-shot cold stream.
		b.Samples = append(b.Samples,
			profile.Sample{IP: 0x400, EA: 0x10000 + uint64(i)*16, Latency: 10, Cycle: uint64(2 * i), ObjID: 0},
			profile.Sample{IP: uint64(0x800 + i*4), EA: 0x10000 + uint64(i), Latency: 10, Cycle: uint64(2*i + 1), ObjID: 0},
		)
	}
	if err := a.Ingest(b); err != nil {
		t.Fatal(err)
	}
	lv := a.Live(1)
	if len(lv.Structures) != 1 {
		t.Fatalf("got %d structures", len(lv.Structures))
	}
	var hot *stream.LiveStream
	for i := range lv.Structures[0].Streams {
		if lv.Structures[0].Streams[i].IP == 0x400 {
			hot = &lv.Structures[0].Streams[i]
		}
	}
	if hot == nil {
		t.Fatal("hot stream evicted")
	}
	if hot.Samples != 50 {
		t.Errorf("hot stream samples = %d, want 50 (was evicted mid-run?)", hot.Samples)
	}
	if hot.Stride != 16 {
		t.Errorf("hot stride = %d, want 16", hot.Stride)
	}
}

func TestLiveView(t *testing.T) {
	a, err := stream.New(nil, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest(synthBatch("s", 4, 2, 12)); err != nil {
		t.Fatal(err)
	}
	lv := a.Live(0)
	if lv.Sessions != 1 || lv.NumSamples != 48 {
		t.Fatalf("sessions=%d samples=%d, want 1/48", lv.Sessions, lv.NumSamples)
	}
	if len(lv.Structures) != 2 {
		t.Fatalf("got %d structures, want 2", len(lv.Structures))
	}
	for _, ls := range lv.Structures {
		if ls.InferredSize != 24 {
			t.Errorf("%s: inferred size %d, want 24", ls.Name, ls.InferredSize)
		}
		for _, st := range ls.Streams {
			if st.Stride != 24 {
				t.Errorf("stream %#x stride %d, want 24", st.IP, st.Stride)
			}
			// Equation 4: 12 samples per stream pins the stride with > 99%
			// confidence.
			if st.Accuracy < 0.99 {
				t.Errorf("stream %#x accuracy %.3f, want > 0.99", st.IP, st.Accuracy)
			}
		}
	}
	if top := a.Live(1); len(top.Structures) != 1 {
		t.Errorf("Live(1) returned %d structures", len(top.Structures))
	}
}

func TestConcurrentSessions(t *testing.T) {
	// Many sessions ingesting concurrently while readers poll the merged
	// views; run under -race in CI.
	a, err := stream.New(nil, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seq := 0; seq < 20; seq++ {
				b := synthBatch(fmt.Sprintf("s%02d", i), 3, 2, 4)
				b.TID = int32(i)
				b.Seq = uint64(seq)
				if err := a.Ingest(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := 0; j < 50; j++ {
			a.Live(3)
			a.Snapshot() // may error before the first ingest; races only matter
			a.Sessions()
		}
	}()
	wg.Wait()
	<-done
	lv := a.Live(0)
	if lv.Sessions != sessions {
		t.Errorf("sessions = %d, want %d", lv.Sessions, sessions)
	}
	wantSamples := uint64(sessions * 20 * 3 * 4)
	if lv.NumSamples != wantSamples {
		t.Errorf("samples = %d, want %d", lv.NumSamples, wantSamples)
	}
}

// TestReportCache: Report builds once per ingest generation. A repeated
// read returns the same report without a build; every accepted change —
// an ordinary batch, a batch of objects only, a batch of cycle accounts
// only, a new session's first batch — forces the next read to rebuild,
// and a rejected batch does not. The multi-process fallback caches the
// same way.
func TestReportCache(t *testing.T) {
	w, err := workloads.Get("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	a, err := stream.New(p, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(b stream.Batch) {
		t.Helper()
		if err := a.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	report := func() *core.Report {
		t.Helper()
		rep, err := a.Report()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// cached reads twice and expects the report it was given, built by no
	// new build.
	cached := func(what string, rep *core.Report) {
		t.Helper()
		builds := a.ReportBuilds()
		for i := 0; i < 2; i++ {
			if got := report(); got != rep {
				t.Fatalf("%s: a repeated Report returned a different report", what)
			}
		}
		if got := a.ReportBuilds(); got != builds {
			t.Fatalf("%s: a repeated Report built %d reports", what, got-builds)
		}
	}

	ingest(synthBatch("s", 4, 2, 12))
	rep := report()
	if a.ReportBuilds() != 1 {
		t.Fatalf("first Report: %d builds, want 1", a.ReportBuilds())
	}
	cached("after the first build", rep)

	more := synthBatch("s", 4, 2, 5)
	more.Objects = nil
	objOnly := stream.Batch{Session: "s", Process: "p", Period: 1000, Objects: []profile.ObjInfo{
		{ID: 9, Name: "late", Base: 0x900000, Size: 64, Identity: 900, TypeID: -1},
	}}
	for _, step := range []struct {
		name  string
		batch stream.Batch
		check func(*core.Report) bool
	}{
		{"an ordinary batch", more, func(r *core.Report) bool { return r.NumSamples == 48+20 }},
		{"an objects-only batch", objOnly, nil},
		{"a batch of cycle accounts only",
			stream.Batch{Session: "s", Process: "p", Period: 1000, AppCycles: 1000, OverheadCycles: 25},
			func(r *core.Report) bool { return r.OverheadPct == 2.5 }},
		{"a new session's first batch",
			stream.Batch{Session: "s2", Process: "p", TID: 1, Period: 1000},
			func(r *core.Report) bool { return r.Threads == 2 }},
	} {
		builds := a.ReportBuilds()
		ingest(step.batch)
		next := report()
		if next == rep || a.ReportBuilds() != builds+1 {
			t.Fatalf("after %s: Report did not rebuild (%d builds)", step.name, a.ReportBuilds()-builds)
		}
		if step.check != nil && !step.check(next) {
			t.Fatalf("after %s: the rebuilt report does not show it", step.name)
		}
		rep = next
		cached("after "+step.name, rep)
	}

	if err := a.Ingest(stream.Batch{Session: "s", Process: "p", Period: 2000}); err == nil {
		t.Fatal("a batch with the wrong period was accepted")
	}
	cached("after a rejected batch", rep)

	ingest(stream.Batch{Session: "other", Process: "q", Period: 1000})
	multi := report()
	if multi == rep {
		t.Fatal("a second process's first batch did not force a rebuild")
	}
	cached("on the multi-process path", multi)

	// Readers share whichever report is cached while batches land; once
	// ingest stops, the next read covers every batch.
	var readers sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if rep, err := a.Report(); err != nil {
					t.Error(err)
					return
				} else if len(rep.Ranking) == 0 {
					t.Error("a report read during ingest ranks nothing")
					return
				}
			}
		}()
	}
	want := multi.NumSamples
	for i := 0; i < 30; i++ {
		b := synthBatch("s", 2, 2, 3)
		b.Objects = nil
		ingest(b)
		want += 6
	}
	close(done)
	readers.Wait()
	if got := report().NumSamples; got != want {
		t.Errorf("after concurrent reads: report covers %d samples, want %d", got, want)
	}
}
