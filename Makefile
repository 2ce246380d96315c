# JBS reproduction — build, test, and static-analysis gates.
#
# `make vet` and `make race` together are the CI gate (.github/workflows/ci.yml);
# see docs/STATIC_ANALYSIS.md for what jbsvet enforces.

GO ?= go

.PHONY: all build test vet vet-fast race bench fuzz-smoke chaos-hedge overload hedge-smoke benchmark-test bench-pair stress multiproc-smoke elastic-smoke loc

all: build vet test

build:
	$(GO) build ./...

# test: -shuffle=on randomizes test and subtest execution order so
# hidden inter-test state dependencies fail loudly instead of silently
# passing in source order. The seed is printed on failure; re-run with
# `go test -shuffle=<seed>` to reproduce.
test:
	$(GO) test -shuffle=on ./...

# vet: the stock toolchain vet plus jbsvet, the repo-specific pass
# (lock hygiene, goroutine-literal lifecycle, Close/Release/Abort
# ownership flow and ledger charges, lock ordering, unchecked Close,
# package doc comments, Fatal from a test rig's launched method). jbsvet
# also fails on a //jbsvet:ignore directive that suppresses nothing.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/jbsvet ./...

# vet-fast: jbsvet alone, with the jbsvet binary cached in GOBIN-style
# under .cache so repeat runs skip the `go run` relink. The binary is
# rebuilt only when analysis or cmd sources change (go build's own
# cache makes the rebuild itself cheap).
vet-fast:
	@mkdir -p .cache
	@$(GO) build -o .cache/jbsvet ./cmd/jbsvet
	@./.cache/jbsvet -timing ./...

# race: the full suite under the race detector, with the leakcheck
# TestMain hooks active in the concurrent packages.
race:
	$(GO) test -race -shuffle=on -timeout 10m ./...

# fuzz-smoke: 30 seconds of coverage-guided fuzzing per wire-format
# decoder and for the merge's key-order check over fetched segments.
# Not exhaustive — a CI tripwire for decode panics, unbounded
# allocations, encode/decode round-trip drift and out-of-order records
# merged silently. Targets must be fuzzed one at a time (a Go toolchain
# restriction).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFrameUnmarshal$$' -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzShedCreditFrame$$' -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzHedgeProtocolFrames$$' -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzMergeOrder$$' -fuzztime 30s ./internal/merge

# chaos-hedge: the speculative-fetch chaos suite under the race detector —
# replicated-MOF topologies where a stalled or dead primary must be
# rescued by the hedging controller (or the replica-rotation retry path)
# with byte identity, hedge-ledger conservation, and zero goroutine
# leaks. Failures print a one-command seeded reproduction line.
chaos-hedge:
	$(GO) test -race -run '^TestChaosHedgeScenarios$$' -short -v ./internal/chaos

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# benchmark-test: the repo benchmark (benchmark/, named by BENCHMARK.json)
# is its own module, so `go test ./...` at the root does not build it;
# this target is what notices when a refactor breaks it.
benchmark-test:
	cd benchmark && $(GO) test ./...

# bench-pair: the paired protocol a performance claim is judged by
# (DESIGN.md §9): PARENT and the working tree copied and built apart under
# .bench_build/pair/, ten untraced pairs and one traced pair per workload,
# sides alternating, every raw run plus the -compare verdicts written to
# BENCH_$(PR).json for committing.
#	make bench-pair PR=24 PARENT=HEAD SEED=11 WORKLOADS=fetch-large-cold,fetch-small-hot
PARENT ?= HEAD
SEED ?= 1
bench-pair:
	$(GO) run ./scripts/benchpair -parent $(PARENT) -pr $(PR) -seed $(SEED) $(if $(WORKLOADS),-workloads $(WORKLOADS)) $(if $(PAIRS),-pairs $(PAIRS))

# loc: non-test Go lines per directory and in total for internal/, cmd/
# and examples/ — all lines (as wc -l counts them) and code lines (no
# blanks, no comment-only lines). The size a simplicity change quotes.
loc:
	$(GO) run ./scripts/loc

# stress: the NetMerger tests whose failures only ever showed under load —
# Close racing readers, first dials and hedge launches, the hedge/shed
# test that used to trip into the Close hang, the lease hand-over on every
# way a Fetch ends (a remote error's receive lease once outlived the
# Fetch it woke), and the tests that read a supplier's accounting after a
# fetch (they wait for Inflight() == 0 first; the daemon lifecycle test is
# the second line) — and, third, the supplier request lifecycle and its
# Close, looped beside a process that keeps one core busy. A hang fails by
# -timeout, with the goroutine dump.
STRESS_COUNT ?= 100
stress:
	@sh -c 'while :; do :; done' & hog=$$!; trap "kill $$hog" EXIT; \
	$(GO) test -count=$(STRESS_COUNT) -timeout 10m \
		-run 'TestCloseRacesReadersAndHedges|TestCloseOvertakesFirstDial|TestHedgeShedGuards|TestFetchGivesBackEveryLease|TestFlowShedBackoffRetryEndToEnd|TestDrainHandoffReroutesFetch' ./internal/core && \
	$(GO) test -count=$(STRESS_COUNT) -timeout 10m -run 'TestSupplierDaemonLifecycle' ./internal/daemon && \
	$(GO) test -count=$(STRESS_COUNT) -timeout 10m -run 'TestSupplierRequestLifecycle|TestSupplierCloseRetiresQueuedRequests' ./internal/core

# multiproc-smoke: the process-level acceptance run — build the real
# jbsregistryd/jbssupplierd/jbsmergerd binaries, spawn a registry plus
# two supplier daemons as OS processes, run a byte-verified multi-round
# jbsmergerd job, SIGKILL one supplier mid-job and restart it under the
# same identity, and require the job to complete with every segment
# verified and every surviving daemon draining to exit 0. See
# docs/DEPLOYMENT.md for the topology this exercises.
multiproc-smoke:
	$(GO) run ./cmd/jbsbench -short multiproc

# elastic-smoke: the autoscaler acceptance run — build jbsregistryd,
# jbssupplierd, and jbsautoscalerd, let the autoscaler launch its own
# supplier fleet, drive a seeded overload that must scale the fleet
# 1 -> 3 and back to 1, and require zero fetch errors, every light-tenant
# segment byte-verified, and every retirement a graceful drain (the
# drained daemon exits 0). See docs/DEPLOYMENT.md "Elastic fleets".
elastic-smoke:
	$(GO) run ./cmd/jbsbench -short elastic

# overload: the multi-tenant flow-control scenario — two concurrent jobs
# (one 10x-skewed) against one supplier, with and without internal/flow,
# including shed injection. Prints the light job's p50/p99 per scenario.
overload:
	$(GO) run ./cmd/jbsbench overload

# hedge-smoke: the hedged-fetching experiment at CI size — a replicated
# two-supplier topology, the primary under seeded stalls and then a
# blackout, each with hedging off and on. Fails if a fetch errors, if the
# hedged stall run launches no hedge, or if a run's hedge ledger never
# settles (every hedge a win, loss, shed, failure or error).
hedge-smoke:
	$(GO) run ./cmd/jbsbench -short hedge
