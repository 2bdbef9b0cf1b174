# Standard targets; CI runs the same three steps (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race lint fmt fuzz bench bench-smoke bench-gate vet-sharing stream-smoke bench-stream stream-gate reuse-check bench-stat stat-gate stat-check vet-legality legality-check bench-legality optimize-check

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint: go vet must be clean and every file gofmt-formatted.
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

# fuzz: a short smoke run of the symbolic-resolver fuzzer.
fuzz:
	$(GO) test ./internal/staticlint/ -fuzz FuzzResolver -fuzztime 30s

# reuse-check: the static reuse-prediction acceptance suite — the
# 7-workload static-vs-dynamic differential (per-nest histograms,
# FromTrace replay, capacity-miss ratios, whole-run bracket) under the
# race detector, and a short run of the reuse-predictor fuzzer (no-panic
# + mass conservation).
reuse-check:
	$(GO) test -race -run 'TestReuseDifferentialWorkloads' .
	$(GO) test ./internal/staticlint/ -run '^$$' -fuzz FuzzReusePredictor -fuzztime 30s

# stream-smoke: the streaming-service acceptance smoke — start the
# ingest server, push the quickstart workload's sample stream over HTTP,
# and require (-selftest) the server's online report and its
# snapshot-derived report to be byte-identical to the local batch
# analysis.
STREAM_ADDR ?= 127.0.0.1:7080
stream-smoke:
	$(GO) build -o /tmp/structslim-smoke ./cmd/structslim
	/tmp/structslim-smoke serve -workload quickstart -addr $(STREAM_ADDR) \
		-final-report=false & echo $$! > /tmp/structslim-smoke.pid
	/tmp/structslim-smoke push -workload quickstart -addr $(STREAM_ADDR) \
		-period 3000 -seed 7 -selftest; \
		rc=$$?; kill $$(cat /tmp/structslim-smoke.pid) 2>/dev/null; exit $$rc

# vet-sharing: the false-sharing acceptance smoke — the planted fixture
# must be flagged statically and confirmed by the coherence cross-check.
vet-sharing:
	$(GO) run ./cmd/structslim vet -sharing -workload falseshare | tee /tmp/vet-sharing.out
	@grep -q "FALSE-SHARING stats._Stat" /tmp/vet-sharing.out
	@grep -q "CONFIRMED" /tmp/vet-sharing.out

# vet-legality: the transform-legality acceptance smoke — the planted
# illegal-split fixture must freeze (escaping field address) while ART,
# the paper's flagship split, stays provably safe and replay-clean.
vet-legality:
	$(GO) run ./cmd/structslim vet -legality -workload escape | tee /tmp/vet-legality.out
	@grep -q "packets.packet (struct packet.*FROZEN" /tmp/vet-legality.out
	@grep -q "LEGALITY-OK" /tmp/vet-legality.out
	$(GO) run ./cmd/structslim vet -legality -workload art | tee /tmp/vet-legality-art.out
	@grep -q "SPLIT-SAFE" /tmp/vet-legality-art.out
	@grep -q "LEGALITY-OK" /tmp/vet-legality-art.out

# legality-check: the legality acceptance suite — per-object verdict
# unit tests and the 7-workload verdict+cross-check sweep under the race
# detector, the end-to-end gate (paper splits pass, planted fixture
# refused), and a short run of the legality fuzzer (no-panic,
# deterministic render, replay never contradicts a claim).
legality-check:
	$(GO) test -race ./internal/legality/
	$(GO) test -race -run 'TestLegalityGate' .
	$(GO) test ./internal/legality/ -run '^$$' -fuzz FuzzLegality -fuzztime 30s

# bench-legality: time the whole-program legality analysis plus dynamic
# cross-check over all seven paper workloads and record BENCH_8.json.
LEGALITY_METRICS ?= legality-metrics.txt
LEGALITY_JSON ?= BENCH_8.json
bench-legality:
	$(GO) test -run '^$$' -benchtime 3x -bench 'BenchmarkLegalitySweep' \
		. | tee $(LEGALITY_METRICS)
	$(GO) run ./cmd/benchjson -in $(LEGALITY_METRICS) -out $(LEGALITY_JSON)

# bench-stream: measure the streaming-ingest transports — in-process
# direct, the PR-5 gob one-request-per-batch HTTP path, and the pipelined
# binary framing — and record BENCH_9.json (samples/sec, allocs/sample,
# bytes/sample per transport). -count 2 lets benchjson keep the best run.
STREAM_METRICS ?= stream-metrics.txt
STREAM_JSON ?= BENCH_9.json
bench-stream:
	$(GO) test -run '^$$' -benchtime 5x -count 2 \
		-bench 'BenchmarkStreamIngest' . | tee $(STREAM_METRICS)
	$(GO) run ./cmd/benchjson -in $(STREAM_METRICS) -out $(STREAM_JSON)

# stream-gate: the streaming acceptance gate. First the sharded
# differential suite under the race detector — any byte-level mismatch
# between online, snapshot-derived, and batch reports at any shard count
# or batch size fails the build. Then re-measure ingest and fail when the
# binary transport's samples/sec regressed more than 15% against the
# committed BENCH_9.json, or its allocs/sample doubled (the ≤1
# alloc/sample acceptance bound sits far above the ~0.15 baseline).
stream-gate:
	$(GO) test -race -run 'TestStreamingMatchesBatch|TestStreamingShardedConcurrent' \
		./internal/stream/
	$(GO) test -run '^$$' -benchtime 5x -count 2 \
		-bench 'BenchmarkStreamIngest' . | tee /tmp/stream-gate.txt
	$(GO) run ./cmd/benchjson -gate -in /tmp/stream-gate.txt -baseline $(STREAM_JSON) \
		-bench BenchmarkStreamIngest/binary -metric samples/sec \
		-higher-is-better -max-regress 15
	$(GO) run ./cmd/benchjson -gate -in /tmp/stream-gate.txt -baseline $(STREAM_JSON) \
		-bench BenchmarkStreamIngest/binary -metric allocs/sample \
		-max-regress 100

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-smoke: one iteration of the perf-critical benchmarks — the
# hot-path microbenchmarks, the experiment engine's worker-pool
# speedup/identity check, and the streaming-ingest throughput (direct vs HTTP-framed) — plus the
# ART end-to-end reference-vs-fastpath benchmark, with metrics captured
# as text and as JSON (BENCH_5.json) for CI upload.
BENCH_METRICS ?= bench-metrics.txt
BENCH_JSON ?= BENCH_5.json
bench-smoke:
	$(GO) test -run '^$$' -benchtime 1x \
		-bench 'BenchmarkRunnerParallel|BenchmarkMachineHotPath|BenchmarkCacheAccess|BenchmarkInterpreter|BenchmarkStreamIngest' \
		-benchmem . | tee $(BENCH_METRICS)
	$(GO) test -run '^$$' -benchtime 3x -bench 'BenchmarkARTProfile' \
		-benchmem . | tee -a $(BENCH_METRICS)
	$(GO) run ./cmd/benchjson -in $(BENCH_METRICS) -out $(BENCH_JSON)

# bench-gate: re-measure the ART end-to-end benchmark and fail when the
# fast-path speedup over the reference engines regressed more than 15%
# against the committed BENCH_5.json baseline. The gated metric is the
# in-run speedup ratio, so it is machine-neutral; -count 3 lets benchjson
# keep the best of three runs, so run-to-run variance (observed swings up
# to ~13%) does not trip the threshold. A missing baseline skips the gate
# (benchjson prints "no baseline ..."). Also gates the statistical-mode
# geomean via stat-gate.
bench-gate: stat-gate
	$(GO) test -run '^$$' -benchtime 3x -count 3 -bench 'BenchmarkARTProfile' . \
		| tee /tmp/bench-gate.txt
	$(GO) run ./cmd/benchjson -gate -in /tmp/bench-gate.txt -baseline $(BENCH_JSON) \
		-bench BenchmarkARTProfile/fastpath -metric x-vs-reference \
		-higher-is-better -max-regress 15

# bench-stat: measure the statistical-window engine across the full
# 7-workload sweep (reference vs fastpath vs statistical) and record
# BENCH_7.json. benchjson
# merges the -count 2 repeats best-of-N (spread recorded per metric) and
# synthesizes BenchmarkWorkloadSweep/statistical/geomean — the suite-wide
# statistical speedup over the reference engine that stat-gate holds.
STAT_METRICS ?= stat-metrics.txt
STAT_JSON ?= BENCH_7.json
GEOMEAN_SPEC = BenchmarkWorkloadSweep/*/statistical:x-vs-reference
bench-stat:
	$(GO) test -run '^$$' -benchtime 2x -count 2 \
		-bench 'BenchmarkWorkloadSweep' \
		. | tee $(STAT_METRICS)
	$(GO) run ./cmd/benchjson -in $(STAT_METRICS) \
		-geomean '$(GEOMEAN_SPEC)' -out $(STAT_JSON)

# stat-gate: re-measure the workload sweep and fail when the statistical
# engine's geomean speedup over the reference engine regressed more than
# 15% against the committed BENCH_7.json baseline (recorded well above
# the 4x acceptance floor, so the tolerance cannot erode below it).
stat-gate:
	$(GO) test -run '^$$' -benchtime 2x -count 2 \
		-bench 'BenchmarkWorkloadSweep' . | tee /tmp/stat-gate.txt
	$(GO) run ./cmd/benchjson -gate -in /tmp/stat-gate.txt -baseline $(STAT_JSON) \
		-geomean '$(GEOMEAN_SPEC)' \
		-bench BenchmarkWorkloadSweep/statistical/geomean -metric x-vs-reference \
		-higher-is-better -max-regress 15

# stat-check: the statistical acceptance suite — advice fidelity against
# exact mode on all 7 paper workloads, sampled-address identity, and the
# exact fallbacks, under the race detector.
stat-check:
	$(GO) test -race -run 'TestStatistical' .

# optimize-check: the layout-optimizer acceptance suite — worker-count
# byte-identity, the paper-workload decision digests and geomean floor
# under the race detector, the frozen-fixture refusal, the
# advice-suboptimal cases (mislaid, mcf), the enumerator unit tests, the
# /v1/optimize endpoint tests, and a short run of the enumerator fuzzer
# (no panic, legality respected, stable dedup).
optimize-check:
	$(GO) test -race -run 'TestOptimize' .
	$(GO) test -race ./internal/optimize/
	$(GO) test -race -run 'TestOptimizeEndpoint' ./internal/server/
	$(GO) test ./internal/optimize/ -run '^$$' -fuzz FuzzOptimizeEnumerator -fuzztime 30s
