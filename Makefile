# Standard targets; CI runs the same three steps (.github/workflows/ci.yml).
# The repository's benchmark is structbench (BENCHMARK.json,
# `bash structbench/run.sh`); bench-gate is the one speed gate here.

GO ?= go

.PHONY: all build test race lint fmt fuzz bench bench-gate vet-sharing stream-smoke reuse-check stat-check vet-legality legality-check optimize-check

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

# fuzz: a 30s run of each fuzzer no other target runs — the symbolic
# resolver, the sharing classifier, the frame decoder (profile files and
# ingest bodies), the stream GCD observer, function finalization and the
# accumulation-cell table.
fuzz:
	$(GO) test ./internal/staticlint/ -run '^$$' -fuzz FuzzResolver -fuzztime 30s
	$(GO) test ./internal/sharing/ -run '^$$' -fuzz FuzzSharingClassifier -fuzztime 30s
	$(GO) test ./internal/profile/ -run '^$$' -fuzz FuzzIngestDecode -fuzztime 30s
	$(GO) test ./internal/profile/ -run '^$$' -fuzz FuzzStreamObserve -fuzztime 30s
	$(GO) test ./internal/prog/ -run '^$$' -fuzz FuzzFinalize -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzIdentityAccum -fuzztime 30s

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
# Each vet run writes its output to a file, prints it and exits with
# vet's status: piped into tee, the line would take tee's status instead.
vet-sharing:
	$(GO) run ./cmd/structslim vet -sharing -workload falseshare > /tmp/vet-sharing.out; \
		rc=$$?; cat /tmp/vet-sharing.out; exit $$rc
	@grep -q "FALSE-SHARING stats._Stat" /tmp/vet-sharing.out
	@grep -q "CONFIRMED" /tmp/vet-sharing.out

# vet-legality: the transform-legality acceptance smoke — the planted
# illegal-split fixture must freeze (escaping field address) while ART,
# the paper's flagship split, stays provably safe and replay-clean.
vet-legality:
	$(GO) run ./cmd/structslim vet -legality -workload escape > /tmp/vet-legality.out; \
		rc=$$?; cat /tmp/vet-legality.out; exit $$rc
	@grep -q "packets.packet (struct packet.*FROZEN" /tmp/vet-legality.out
	@grep -q "LEGALITY-OK" /tmp/vet-legality.out
	$(GO) run ./cmd/structslim vet -legality -workload art > /tmp/vet-legality-art.out; \
		rc=$$?; cat /tmp/vet-legality-art.out; exit $$rc
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

# bench: one iteration of every root benchmark except the gated sweep,
# whose single cold round is no measure of the engines.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' -skip 'BenchmarkWorkloadSweep' .

# bench-gate: the speed gate. BenchmarkWorkloadSweep interleaves the
# reference, fast-path and statistical engines in each round and fails
# when art's fast path falls below 1.35x the reference engines or the
# geomean of the seven statistical speedups below 4.52x, each engine
# taking its best of the three measured rounds. Both floors are in-run
# ratios, not wall times, so no host's speed is built into them.
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkWorkloadSweep' -benchtime 3x -v .

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
