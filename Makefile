# Tier-1 verification plus the race and lint gates for the concurrent
# serving code. `make ci` is what every PR must keep green.
GO ?= go

.PHONY: ci fmt bench-build vet lint lint-fast build test race fuzz-smoke metricsz-smoke ws-smoke bench-smoke bench-baseline stress bench soak-smoke soak

ci: fmt vet lint build bench-build test race fuzz-smoke metricsz-smoke ws-smoke bench-smoke soak-smoke

# Every Go file in the tree, the bench module's included, is gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# The project-specific analyzer suite (internal/analysis, driven by
# cmd/ewvet): lock discipline, guarded fields, float equality, hot-path
# allocations, goroutine lifecycles, plus the interprocedural layer —
# call-graph construction, hot-path propagation, and global lock-order
# deadlock detection. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/ewvet .

# Inner-loop variant: intra-procedural analyzers only, skipping the
# module-wide call-graph construction the interprocedural layer needs.
lint-fast:
	$(GO) run ./cmd/ewvet -fast .

build:
	$(GO) build ./...

# The benchmark harness is its own module (bench/go.mod, replace repro
# => ../), so `go build ./...` at the root skips it; vetting it here
# keeps a serve API change from silently breaking the benchmark.
bench-build:
	cd bench && $(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the whole module. The serve tree additionally runs at
# -cpu=1,4 so shard scheduling (sharded session manager, jobs contending
# for per-shard slots, pooled streams) is exercised both starved and
# parallel.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu=1,4 ./internal/serve/...

# Scrape GET /metricsz on a live sharded service under real traffic and
# strictly re-parse the Prometheus exposition (names, HELP/TYPE order,
# histogram cumulativity), cross-checking every counter against /statsz.
metricsz-smoke:
	$(GO) test -run 'TestMetricsz' -count=1 ./internal/serve

# A short ewload run over the /v1/stream WebSocket path, gated on the
# error rate and on a strict /metricsz scrape: the duplex ingest must
# deliver incremental detections under concurrency, end to end.
ws-smoke:
	$(GO) run ./cmd/ewload -ws -writers 8 -signals 2 -max-error-rate 0.01 -metricsz

# A 10-second native-fuzz smoke of the streaming chunking invariance;
# regressions in Stream.Feed surface here before the long fuzzers run.
# The 5-second WebSocket frame-parser fuzz guards the untrusted-input
# path of the duplex ingest the same way.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzStreamFeed -fuzztime 10s ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzFrameRead -fuzztime 5s ./internal/ws
	$(GO) test -run '^$$' -fuzz FuzzBandTransform -fuzztime 5s ./internal/dsp

# The STFT and streaming-feed benchmarks the serving path depends on,
# checked against the committed baseline (BENCH_baseline.json): a row
# whose ns/op, divided by the same run's BenchmarkSTFTCompute/fullfft,
# grew >20% over the baseline's ratio fails the build, and so does any
# allocs/op change — so a slower or faster host alone cannot move the
# verdict. Three short counts per benchmark,
# in two passes a minute apart; ewbenchgate gates on the per-benchmark
# minimum so shared-machine noise, including a host that drops to a
# slower speed for tens of seconds, cannot fail a healthy build. The
# steady-state feed runs a fixed 200 feeds so its allocs/op is exact.
BENCH_PASS = $(GO) test -run '^$$' -bench 'BenchmarkSTFTCompute' -benchmem -benchtime 0.3s -count 3 ./internal/dsp && \
	$(GO) test -run '^$$' -bench 'BenchmarkStreamFeed1024$$' -benchmem -benchtime 0.3s -count 3 . && \
	$(GO) test -run '^$$' -bench 'BenchmarkStreamFeedSteady$$' -benchmem -benchtime 200x -count 3 .
BENCH_SMOKE = { $(BENCH_PASS) && $(BENCH_PASS); }

bench-smoke:
	$(BENCH_SMOKE) | $(GO) run ./cmd/ewbenchgate

# Refresh the committed baseline after a deliberate performance change;
# the baseline diff should land in the same commit as its cause.
bench-baseline:
	$(BENCH_SMOKE) | $(GO) run ./cmd/ewbenchgate -update

# The long-running adversarial soak: the stress suite with its goroutine
# and iteration counts multiplied (see internal/serve/stress).
stress:
	EW_STRESS=long $(GO) test -race -v -timeout 30m ./internal/serve/stress/

# Scenario-matrix replay smoke: record (or reuse) the smoke matrix's
# traces and soak both ingest paths for 2 s each, holding /metricsz to
# the health bands. EW_SOAK=long gears the per-phase duration ×10 — the
# `soak` target below is the full matrix at that length.
soak-smoke:
	$(GO) run ./cmd/ewload -scenario smoke -soak 2s -writers 4

soak:
	EW_SOAK=long $(GO) run ./cmd/ewload -scenario all -soak 30s

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...
