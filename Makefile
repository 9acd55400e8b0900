# Convenience targets for the BOOM Analytics reproduction.

GO ?= go

.PHONY: all build test check lint race chaos chaos-tcp scale examples experiments clean

all: build test

build:
	$(GO) build ./...

test: check
	$(GO) test ./...

# check: static analysis (the lint target, below) plus a race pass
# over the concurrency-heavy packages (telemetry registry and event
# ring, wall-clock transport, trace, and rtfs, whose client's TCP link
# reads its runtime from the caller's goroutine while the node loop
# runs), plus a short fault-injection sweep (see `chaos` below). The
# telemetry, sim, chaos, and loadgen lines carry the span-tracing and
# SLO-monitor tests, so concurrent span recording is always raced.
# internal/overlog has no goroutines and no race line: its
# Differential tests (semi-naive against naive evaluation) run in
# the plain `go test ./...`; the 'AllocGuard|Visits' line names its two
# families of regression guards — bytes per step, and rules entered or
# rows compared per step — so a CI log shows them run. The four fuzz
# lines run ten seconds each: FuzzRestoreSnapshot feeds RestoreSnapshot
# mutated checkpoint images, starting from the seed corpus in
# internal/overlog/testdata/fuzz; FuzzParse feeds the parser (and an
# install of what it accepts) mutations of every shipped .olg file;
# FuzzWireFrames feeds the TCP receive path arbitrary bytes, seeded with
# one encoded frame per table of the shipped wire protocols, into a node
# that must never stop on them; and FuzzReadSchedule feeds the schedule
# loader mutations of every scenario's seed 1-5 plans, checking that a
# plan it accepts writes back byte for byte and ends after it starts.
# boomlint runs the Overlog whole-program analyzer over every
# deployment unit of the registered .olg files (internal/programs),
# failing on any warn- or error-severity finding, and over the
# standalone .olg examples, failing on any error-severity finding.
# boomvet does the same for the Go runtime
# itself: determinism, clone-on-store ownership, and noalloc passes
# over every package (see internal/govet). The last two lines cover the
# benchmark, a module of its own that `go build ./...` and
# `go test ./...` do not see: a 1/20-size run of all six workloads with
# their correctness checks, and its tests (BENCHMARK.json == catalogue).
check: lint
	$(GO) test -race ./internal/telemetry ./internal/trace ./internal/transport ./internal/rtfs
	$(GO) test -race ./internal/chaos/... ./internal/sim ./internal/loadgen ./internal/provenance
	$(GO) test -run 'AllocGuard|Visits' ./internal/overlog ./internal/sim
	$(GO) test -run '^$$' -fuzz=FuzzRestoreSnapshot -fuzztime=10s ./internal/overlog
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/overlog
	$(GO) test -run '^$$' -fuzz=FuzzWireFrames -fuzztime=10s ./internal/transport
	$(GO) test -run '^$$' -fuzz=FuzzReadSchedule -fuzztime=10s ./internal/chaos
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

# chaos-tcp: the same seed-derived fault schedules, protocol configs and
# monitor windows replayed against the production TCP transport (real
# sockets, on a virtual clock the cluster owns, uncompressed) — the
# transport-hardening gate: bounded send queues, dial backoff, and the
# fault-injecting conn layer must preserve the same invariants the
# simulator proves. Shrinking is off: live runs aren't bit-replayable,
# so a minimal counterexample should be reproduced under -transport sim.
chaos-tcp:
	$(GO) run ./cmd/boom-chaos -transport tcp -scenario fs -seeds 10 -shrink=false
	$(GO) run ./cmd/boom-chaos -transport tcp -scenario paxos -seeds 10 -shrink=false

# scale: the scale-trajectory artifact — dense/sparse scheduler
# microbenchmark (does per-step cost track active or total nodes?)
# plus open-loop FS/MR/KV latency sweeps, written to BENCH_scale.json
# with the pre-rework baseline pinned for comparison.
scale:
	$(GO) run ./cmd/boom-scale -out BENCH_scale.json

# lint: the full static-analysis surface, Go and Overlog alike: gofmt,
# go vet, boomvet, both boomlint lines and govulncheck when installed.
# check runs it first, so CI runs each of them once.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/boomvet -severity=error ./...
	$(GO) run ./cmd/boomlint -severity=warn
	$(GO) run ./cmd/boomlint -severity=error examples/quickstart/quickstart.olg
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

race:
	$(GO) test -race ./...

# experiments: run the paper's evaluation once, at its documented
# parameters, and rewrite EXPERIMENTS.md's generated tables and the
# behaviour golden (internal/experiments/testdata) that
# TestBehaviourGolden checks them against.
experiments:
	$(GO) run ./cmd/boom-bench

# examples: every walkthrough under examples/ runs and exits 0.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/wordcount
	$(GO) run ./examples/failover
	$(GO) run ./examples/partitioned
	$(GO) run ./examples/monitoring
	$(GO) run ./examples/kvdemo

clean:
	$(GO) clean ./...
	rm -f boom boom-bench test_output.txt
