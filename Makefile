# Convenience targets for the BOOM Analytics reproduction.

GO ?= go

.PHONY: all build test check lint race bench-paper chaos chaos-tcp scale examples experiments profile clean

all: build test

build:
	$(GO) build ./...

test: check
	$(GO) test ./...

# check: static analysis plus a race pass over the concurrency-heavy
# packages (telemetry registry/journal/span tracer, wall-clock
# transport, trace), plus a short fault-injection sweep (see `chaos`
# below). The telemetry, sim, chaos, and loadgen lines carry the
# span-tracing and SLO-monitor tests, so concurrent span recording is
# always raced. internal/overlog has no goroutines and no race line:
# its Differential tests (semi-naive against naive evaluation) run in
# the plain `go test ./...`; the 'AllocGuard|Visits' line names its two
# families of regression guards — bytes per step, and rules entered or
# rows compared per step — so a CI log shows them run.
# boomlint runs the Overlog whole-program analyzer over every embedded
# rule set (and the standalone .olg examples), failing on any
# error-severity finding. boomvet does the same for the Go runtime
# itself: determinism, clone-on-store ownership, and noalloc passes
# over every package (see internal/govet). The last two lines cover the
# benchmark, a module of its own that `go build ./...` and
# `go test ./...` do not see: a 1/20-size run of all six workloads with
# their correctness checks, and its tests (BENCHMARK.json == catalogue).
check:
	$(GO) vet ./...
	$(GO) run ./cmd/boomvet -severity=error ./...
	$(GO) run ./cmd/boomlint -severity=error
	$(GO) run ./cmd/boomlint -severity=error examples/quickstart/quickstart.olg
	$(GO) test -race ./internal/telemetry ./internal/trace ./internal/transport
	$(GO) test -race ./internal/chaos/... ./internal/sim ./internal/loadgen ./internal/provenance
	$(GO) test -run 'AllocGuard|Visits' ./internal/overlog ./internal/sim
	$(MAKE) chaos
	$(GO) run ./cmd/boom-scale -smoke -out /dev/null
	bash bench/run.sh -smoke
	cd bench && $(GO) test ./...

# chaos: a short deterministic fault-injection sweep — every scenario
# (replicated-FS master failover, Paxos leader churn, MapReduce worker
# churn, gossip membership views against ground truth) under a few
# seeds' worth of kills, restarts, partitions, and
# loss bursts; exits 1 on any sys::invariant violation, printing the
# shrunk minimal fault schedule. `go run ./cmd/boom-chaos -seeds 25`
# is the full acceptance sweep.
chaos:
	$(GO) run ./cmd/boom-chaos -scenario all -seeds 3

# chaos-tcp: the same seed-derived fault schedules replayed against the
# production TCP transport (real sockets, compressed wall clock) — the
# transport-hardening gate: bounded send queues, dial backoff, and the
# fault-injecting conn layer must preserve the same invariants the
# simulator proves. Shrinking is off: live runs aren't bit-replayable,
# so a minimal counterexample should be reproduced under -transport sim.
chaos-tcp:
	$(GO) run ./cmd/boom-chaos -transport tcp -scenario fs -seeds 5 -shrink=false
	$(GO) run ./cmd/boom-chaos -transport tcp -scenario paxos -seeds 5 -shrink=false

# scale: the scale-trajectory artifact — dense/sparse scheduler
# microbenchmark (does per-step cost track active or total nodes?)
# plus open-loop FS/MR/KV latency sweeps, written to BENCH_scale.json
# with the pre-rework baseline pinned for comparison.
scale:
	$(GO) run ./cmd/boom-scale -out BENCH_scale.json

# lint: the full static-analysis surface, Go and Overlog alike.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/boomvet -severity=error ./...
	$(GO) run ./cmd/boomlint -severity=error
	$(GO) run ./cmd/boomlint -severity=error examples/quickstart/quickstart.olg
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

race:
	$(GO) test -race ./...

# Every table/figure as testing.B benchmarks (plus runtime ablations).
bench-paper:
	$(GO) test -bench=. -benchmem .

# The paper's evaluation with full parameters, printed as reports.
experiments:
	$(GO) run ./cmd/boom-bench all

# profile: both profiler views from one boom-bench run — the Go CPU
# profile (inspect with `go tool pprof cpu.pprof`) and the Overlog
# per-rule fixpoint profile (wall time, fires, retractions per rule,
# stratum iteration histograms, plus a sample lineage DAG).
profile:
	$(GO) run ./cmd/boom-bench -cpuprofile cpu.pprof -ruleprofile ruleprofile.txt profile
	@echo "wrote cpu.pprof and ruleprofile.txt"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/wordcount
	$(GO) run ./examples/failover
	$(GO) run ./examples/partitioned
	$(GO) run ./examples/monitoring
	$(GO) run ./examples/twophase

clean:
	$(GO) clean ./...
	rm -f boom boom-bench test_output.txt cpu.pprof ruleprofile.txt
