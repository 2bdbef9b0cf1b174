package stream_test

// Differential tests of the online analyzer: fed the complete event
// stream of a profiled run — in any batching, across per-thread sessions
// — the streaming analyzer must reproduce the batch pipeline exactly.
// Snapshot must be deep-equal to the batch merged profile, and both
// Report() (built from the online accumulators alone) and
// Analyze(Snapshot()) must render byte-identically to the batch
// analyzer's report. This is the acceptance gate for the whole streaming
// subsystem: moving the analysis online may not change a single byte of
// advice.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/stream"
	"repro/internal/workloads"
	"repro/structslim"
)

var diffOpt = structslim.Options{SamplePeriod: 3000, Seed: 7}

// feed replays the run's per-thread sample streams into the analyzer as
// one session per thread, split into batches of batchSize samples. The
// full object table rides on each session's first batch; the cycle
// accounts ride on the last. With readEvery > 0 it also reads Report
// after every readEvery-th batch, so a report cached at one generation
// meets later batches.
func feed(t *testing.T, a *stream.Analyzer, res *structslim.RunResult, process string, batchSize, readEvery int) {
	t.Helper()
	batches := 0
	for _, tp := range res.ThreadProfiles {
		n := len(tp.Samples)
		var seq uint64
		for start := 0; start < n || start == 0; start += batchSize {
			end := start + batchSize
			if end > n {
				end = n
			}
			b := stream.Batch{
				Session: fmt.Sprintf("%s-t%03d", process, tp.TID),
				Process: process,
				TID:     int32(tp.TID),
				Period:  tp.Period,
				Seq:     seq,
				Samples: tp.Samples[start:end],
			}
			if start == 0 {
				b.Objects = tp.Objects
			}
			if end == n {
				b.AppCycles = tp.AppCycles
				b.OverheadCycles = tp.OverheadCycles
				b.MemOps = tp.MemOps
			}
			if err := a.Ingest(b); err != nil {
				t.Fatal(err)
			}
			if batches++; readEvery > 0 && batches%readEvery == 0 {
				if _, err := a.Report(); err != nil {
					t.Fatal(err)
				}
			}
			seq++
			if end == n {
				break
			}
		}
	}
}

func renderBytes(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	rep.RenderText(&buf)
	return buf.Bytes()
}

// TestStreamingMatchesBatch is the core differential: for every paper
// workload, shard count, and batch size, the streaming analyzer's
// snapshot, online report, and snapshot-analyzed report must all match
// the batch pipeline. The shard dimension is the acceptance gate for the
// session-partitioned analyzer: partitioning the session directory may
// not change a single byte at any shard count.
//
// At period 3000 no session holds more than a few hundred samples, so
// none reaches a full-size cell block or fills its first sample block.
// One more case profiles health at period 12: its four sessions hold 12k
// to 51k cells and 18k to 56k samples each, many blocks and table
// growths.
func TestStreamingMatchesBatch(t *testing.T) {
	for _, name := range workloads.PaperOrder {
		t.Run(name, func(t *testing.T) {
			checkStreamingMatchesBatch(t, name, diffOpt, []int{1, 4, 16}, []int{1, 17, 512}, 17)
		})
	}
	t.Run("health-period12", func(t *testing.T) {
		opt := structslim.Options{SamplePeriod: 12, Seed: 7}
		checkStreamingMatchesBatch(t, "health", opt, []int{1, 8}, []int{512}, 512)
	})
}

// checkStreamingMatchesBatch profiles one workload and feeds its sample
// streams to an analyzer at every shard count and batch size, reading
// Report after every 7th batch; a report cached across a later batch
// would make the final one differ. Snapshot materialization is the
// expensive check; it runs at one batch size, snapshotBatch (the online
// state it reads is batching-insensitive, which the report checks prove
// per size).
func checkStreamingMatchesBatch(t *testing.T, name string, opt structslim.Options, shardCounts, sizes []int, snapshotBatch int) {
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	p, phases, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := structslim.ProfileRun(p, phases, opt)
	if err != nil {
		t.Fatal(err)
	}
	batchRep, err := core.Analyze(res.Profile, p, opt.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	want := renderBytes(t, batchRep)

	for _, shards := range shardCounts {
		for _, bs := range sizes {
			t.Run(fmt.Sprintf("shards%d/batch%d", shards, bs), func(t *testing.T) {
				a, err := stream.New(p, stream.Config{Shards: shards, Analysis: opt.Analysis})
				if err != nil {
					t.Fatal(err)
				}
				feed(t, a, res, "p0", bs, 7)

				if bs == snapshotBatch {
					snap, err := a.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(snap, res.Profile) {
						t.Error("snapshot differs from batch merged profile")
					}
					snapRep, err := core.Analyze(snap, p, opt.Analysis)
					if err != nil {
						t.Fatal(err)
					}
					if got := renderBytes(t, snapRep); !bytes.Equal(got, want) {
						t.Error("snapshot-analyzed report differs from batch report")
					}
				}

				onlineRep, err := a.Report()
				if err != nil {
					t.Fatal(err)
				}
				if got := renderBytes(t, onlineRep); !bytes.Equal(got, want) {
					t.Errorf("online report differs from batch report\n--- online ---\n%s\n--- batch ---\n%s", got, want)
				}
			})
		}
	}
}

// TestStreamingShardedConcurrent ingests every session from its own
// goroutine into a sharded analyzer — the server's actual concurrency
// shape — while two readers loop over Report, Live, Sessions and
// Snapshot, and requires the final report to stay byte-identical. Every
// report read during ingest must be one consistent cut: each structure
// with a known size has field latencies summing to its own. Run under -race (CI's
// stream job) this also proves the sharded hot path and the in-place
// report fold are data-race-free, not merely deterministic.
func TestStreamingShardedConcurrent(t *testing.T) {
	for _, name := range []string{"art", "clomp"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			p, phases, err := w.Build(nil, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			res, err := structslim.ProfileRun(p, phases, diffOpt)
			if err != nil {
				t.Fatal(err)
			}
			batchRep, err := core.Analyze(res.Profile, p, diffOpt.Analysis)
			if err != nil {
				t.Fatal(err)
			}
			want := renderBytes(t, batchRep)

			for _, shards := range []int{1, 16} {
				t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
					a, err := stream.New(p, stream.Config{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					// Two readers, so a report cached between batches is
					// read by both at once while ingest invalidates it.
					ingested := make(chan struct{})
					var readers sync.WaitGroup
					for r := 0; r < 2; r++ {
						readers.Add(1)
						go func() {
							defer readers.Done()
							for {
								// Check after each pass, so at least one
								// pass runs whatever the timing.
								select {
								case <-ingested:
									return
								default:
								}
								readDuringIngest(t, a)
							}
						}()
					}

					var wg sync.WaitGroup
					errc := make(chan error, len(res.ThreadProfiles))
					for _, tp := range res.ThreadProfiles {
						wg.Add(1)
						go func(tp *profile.ThreadProfile) {
							defer wg.Done()
							n := len(tp.Samples)
							var seq uint64
							for start := 0; start < n || start == 0; start += 17 {
								end := start + 17
								if end > n {
									end = n
								}
								b := stream.Batch{
									Session: fmt.Sprintf("p0-t%03d", tp.TID),
									Process: "p0",
									TID:     int32(tp.TID),
									Period:  tp.Period,
									Seq:     seq,
									Samples: tp.Samples[start:end],
								}
								if start == 0 {
									b.Objects = tp.Objects
								}
								if end == n {
									b.AppCycles = tp.AppCycles
									b.OverheadCycles = tp.OverheadCycles
									b.MemOps = tp.MemOps
								}
								if err := a.Ingest(b); err != nil {
									errc <- err
									return
								}
								seq++
								if end == n {
									break
								}
							}
						}(tp)
					}
					wg.Wait()
					close(ingested)
					readers.Wait()
					close(errc)
					if err := <-errc; err != nil {
						t.Fatal(err)
					}
					rep, err := a.Report()
					if err != nil {
						t.Fatal(err)
					}
					if got := renderBytes(t, rep); !bytes.Equal(got, want) {
						t.Error("concurrent sharded report differs from batch report")
					}
				})
			}
		})
	}
}

// readDuringIngest reads every view once. Before the first batch lands
// there are no sessions yet, which is the only error allowed.
func readDuringIngest(t *testing.T, a *stream.Analyzer) {
	ok := func(view string, err error) bool {
		if err != nil && !strings.Contains(err.Error(), "no sessions") {
			t.Errorf("%s during ingest: %v", view, err)
		}
		return err == nil
	}
	rep, err := a.Report()
	if ok("Report", err) {
		for _, sr := range rep.Structures {
			if sr.InferredSize == 0 {
				continue
			}
			var sum uint64
			for _, f := range sr.Fields {
				sum += f.LatencySum
			}
			if sum != sr.LatencySum {
				t.Errorf("%s: fields sum to latency %d, structure has %d", sr.Name, sum, sr.LatencySum)
			}
		}
	}
	a.Live(0)
	a.Sessions()
	_, err = a.Snapshot()
	ok("Snapshot", err)
}

// TestStreamingReportWithoutSamples checks the headline property: with
// raw-sample retention disabled the online report is still byte-identical
// — the analyzer needs only its per-stream/per-identity state.
func TestStreamingReportWithoutSamples(t *testing.T) {
	for _, name := range []string{"art", "clomp"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloads.Get(name)
			p, phases, err := w.Build(nil, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			res, err := structslim.ProfileRun(p, phases, diffOpt)
			if err != nil {
				t.Fatal(err)
			}
			batchRep, err := core.Analyze(res.Profile, p, diffOpt.Analysis)
			if err != nil {
				t.Fatal(err)
			}
			want := renderBytes(t, batchRep)

			a, err := stream.New(p, stream.Config{DropSamples: true})
			if err != nil {
				t.Fatal(err)
			}
			feed(t, a, res, "p0", 64, 0)
			if _, err := a.Snapshot(); err == nil {
				t.Error("snapshot should be unavailable with DropSamples")
			}
			rep, err := a.Report()
			if err != nil {
				t.Fatal(err)
			}
			if got := renderBytes(t, rep); !bytes.Equal(got, want) {
				t.Error("sample-free online report differs from batch report")
			}
		})
	}
}

// TestStreamingMultiProcess merges sessions of two separate runs
// (processes) and checks against the batch cross-process merge.
func TestStreamingMultiProcess(t *testing.T) {
	w, err := workloads.Get("clomp")
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(seed uint64) *structslim.RunResult {
		opt := diffOpt
		opt.Seed = seed
		p, phases, err := w.Build(nil, workloads.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		res, err := structslim.ProfileRun(p, phases, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res0 := runOnce(7)
	res1 := runOnce(11)

	merged, err := profile.MergeProcessProfiles([]*profile.Profile{res0.Profile, res1.Profile})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := w.Build(nil, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	batchRep, err := core.Analyze(merged, p, diffOpt.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	want := renderBytes(t, batchRep)

	a, err := stream.New(p, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, a, res0, "proc0", 33, 0)
	feed(t, a, res1, "proc1", 47, 0)

	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, merged) {
		t.Error("multi-process snapshot differs from MergeProcessProfiles")
	}
	rep, err := a.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderBytes(t, rep); !bytes.Equal(got, want) {
		t.Error("multi-process report differs from batch report")
	}
}
