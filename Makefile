GO ?= go

# Concurrency-bearing packages exercised under the race detector: the
# worker pool, the sharded analysis fan-in, the pipelined
# generation→ingest sink, the parallel snapshot encode/decode, the
# fault injector (atomic call counters shared across goroutines), the
# explorer store/server (writer vs. scraper interleavings), and the
# metrics registry (atomic counters incremented from every pipeline
# stage while /metrics snapshots them), the quality sentinel (one
# mutex guarding ledger + drift state fed from poll and analysis paths
# while /qualityz evaluates concurrently), and the out-of-core query
# engine (detection mapped onto the decode pool, folds on one
# goroutine), and the incremental stream engine (concurrent Offer vs.
# the detect worker pool vs. the ordered fold goroutine), and the
# collection fleet (lease table hammered by concurrent replicas, TTL
# expiry racing renewals, checkpoint posts fenced by epoch), and the SLO
# engine (Tick vs. /sloz State vs. HealthSource under worker fan-out),
# and the ops bootstrap (the SLO loop and the -metrics-addr listener
# serving while the binary feeds the registry).
RACE_PKGS = ./internal/parallel ./internal/report ./internal/collector ./internal/workload ./internal/snapshot ./internal/faults ./internal/explorer ./internal/obs ./internal/quality ./internal/query ./internal/stream ./internal/fleet ./internal/slo ./internal/ops

.PHONY: verify build test vet race bench bench-json bench-stream bench-latency chaos metrics-smoke fleet trace-smoke load-smoke fuzz-smoke

# verify is the extended tier-1 gate (see ROADMAP.md): build + tests,
# static checks (vet, including the separate perfbench module, which
# `go build ./...` never compiles, and a read-only gofmt check over the
# whole tree, perfbench included), and the race suite over the
# concurrent packages.
verify: build test vet race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet .
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race $(RACE_PKGS)

# chaos is the resilience gate: every chaos-tagged test under the race
# detector (fault taxonomy, wire-level middleware, worker-count
# determinism, 10%-fault integrity), then a seeded end-to-end soak of
# the full pipeline under a 10% fault rate.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Resilien|Breaker|Backfill|Outage|Pending' . ./internal/faults ./internal/collector
	$(GO) run ./cmd/jitosim -days 10 -scale 20000 -fault-rate 0.1 -chaos-seed 7 -fig headline

# fuzz-smoke runs each snapshot decoder fuzz target for a fixed budget:
# the seed corpus and the kept regressions under
# internal/snapshot/testdata/fuzz first, then mutation. FuzzDecodeShard
# feeds raw shard payloads to the shard decoders directly, past the gzip
# CRC the container-level targets mostly stop at. A failing input is
# written to that directory; fix the decoder and keep the file.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=20s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz='^FuzzScan$$' -fuzztime=20s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeShard$$' -fuzztime=20s ./internal/snapshot

# bench smoke-runs every benchmark once — cheap proof that each figure,
# table and pipeline benchmark still executes; use -benchtime=default
# runs for real measurements.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-json runs the benchmark suite once and writes BENCH_persist.json
# (benchmark name → ns/op, B/op, allocs/op, MB/s) so future PRs can diff
# the performance trajectory mechanically. The observability-overhead
# benchmarks (registry hot path plus instrumented-vs-plain analysis) run
# long enough for stable ns/op and land in BENCH_obs.json.
bench-json:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./... | $(GO) run ./cmd/benchjson > BENCH_persist.json
	$(GO) test -run=NONE -bench='Obs|InstrumentedAnalyze|AnalyzeParallel$$' -benchmem . ./internal/obs | $(GO) run ./cmd/benchjson > BENCH_obs.json
	$(GO) test -run=NONE -bench=Quality -benchmem ./internal/quality | $(GO) run ./cmd/benchjson > BENCH_quality.json
	$(GO) test -run=NONE -bench=Query -benchmem ./internal/query | $(GO) run ./cmd/benchjson > BENCH_query.json
	$(GO) test -run=NONE -bench=Stream -benchmem ./internal/stream | $(GO) run ./cmd/benchjson > BENCH_stream.json
	$(GO) test -run=NONE -bench=Fleet -benchmem ./internal/fleet | $(GO) run ./cmd/benchjson > BENCH_fleet.json
	$(GO) test -run=NONE -bench='Trace|InstrumentedAnalyze|TracedAnalyze' -benchmem . ./internal/obs | $(GO) run ./cmd/benchjson > BENCH_trace.json
	$(GO) test -run=NONE -bench=SLO -benchmem ./internal/slo | $(GO) run ./cmd/benchjson > BENCH_slo.json
	$(GO) run ./cmd/loadgen -self -clients 32 -qps 200 -qps-max 1500 -steps 4 -step-dur 3s -bench-out BENCH_serve.json

# bench-latency smoke-runs the incremental-detection benchmarks once —
# quick proof that the streamed path, its cross-block stage and the
# batch baseline still execute and report their latency percentiles.
bench-latency:
	$(GO) test -run=NONE -bench=Stream -benchtime=1x ./internal/stream

# bench-stream smoke-runs the out-of-core query benchmarks once:
# streaming full scan, day-range pruned scan, and the resident baseline
# over the same synthetic four-month container.
bench-stream:
	$(GO) test -run=NONE -bench=Query -benchtime=1x ./internal/query

# fleet is the distributed-collection gate: lease/fencing/chaos/merge
# tests under the race detector, then a real multi-process run — four
# collect -fleet replicas against a chaos explorerd, one killed with
# SIGKILL mid-run, survivors finishing its partitions, and the merged
# snapshot compared byte-for-byte against a clean single-replica
# baseline (see scripts/fleet_smoke.sh).
fleet:
	$(GO) test -race -count=1 -run 'Fleet|Lease|Merge|Plan' ./internal/fleet
	sh scripts/fleet_smoke.sh

# trace-smoke is the distributed-tracing gate: the tracer/propagation
# tests under the race detector, then a real two-process run — collect
# polling a chaos explorerd with traceparent propagation, both flight
# recorders validated by metricscheck -tracez-url, injected faults
# attributed to the traces that suffered them, and histogram exemplars
# linking /metrics tails to trace IDs (see scripts/trace_smoke.sh).
trace-smoke:
	$(GO) test -race -count=1 -run 'Trace|Span|Exemplar' ./internal/obs ./internal/fleet
	sh scripts/trace_smoke.sh

# metrics-smoke starts explorerd, validates its /metrics exposition, then
# runs a short collect with -metrics-addr and validates the collector's
# live and end-of-run metrics, plus both processes' /qualityz verdict
# documents, /sloz SLO documents and /healthz probes (see
# scripts/metrics_smoke.sh).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# load-smoke is the service-level gate: the SLO engine tests under the
# race detector, then a real run — explorerd with second-scale SLO
# windows under a steady loadgen fleet, /sloz walked through
# all-ok -> fast-burn -> recovered by toggling the fault rate over
# /chaosz (with /healthz 503ing during the burn), then a QPS ramp that
# writes BENCH_serve.json with per-step p50/p99 and the max sustainable
# QPS (see scripts/load_smoke.sh).
load-smoke:
	$(GO) test -race -count=1 -run 'SLO|Burn|Health|Sloz|Budget' ./internal/slo ./internal/obs
	sh scripts/load_smoke.sh
