# Makefile for gfcube. CI (.github/workflows/ci.yml) runs exactly these
# targets, so a green `make ci` locally means a green pipeline.

# pipefail so `go test | tee` targets fail when go test fails, not tee.
SHELL       := /bin/bash
.SHELLFLAGS := -o pipefail -c

GO       ?= go
BENCH    ?= .
TESTJSON ?= test-report.json
BENCHOUT ?= bench.txt

# Benchmark-regression gate settings. BENCHFULL selects the gated
# benchmarks (the paper-experiment E-suite, the sweep engine fixture,
# cube construction — the column chain from Q_0 — one column builder vs
# core.New per cell, the rank/unrank addressing hot path, the
# MS-BFS distance engine and the streaming Θ analysis); the full run
# uses real iteration counts so bench-full numbers are comparable,
# unlike the 1-iteration smoke run.
BENCHFULL      ?= BenchmarkE[0-9]|BenchmarkSweep|BenchmarkConstructCube|BenchmarkColumnBuild|BenchmarkRankUnrank|BenchmarkMSBFS|BenchmarkThetaAnalyze
BENCHFULLOUT   ?= bench-full.txt
BENCHBASELINE  ?= bench-baseline.txt
BENCHTHRESHOLD ?= 1.25

# Coverage floor for internal/...: the seed's measured coverage (93.1%),
# with a one-decimal guard for timing-dependent branches in the
# concurrency tests.
COVERMIN  ?= 93.0
COVEROUT  ?= cover.out

# Per-target budget for the fuzz smoke gate.
FUZZTIME  ?= 30s

# Latency-SLO gate settings: gfc-loadgen drives a local gfc-serve with a
# mixed endpoint profile and checks the committed thresholds.
SLOBASELINE ?= slo-baseline.json
SLODUR      ?= 30s
SLOCONC     ?= 32
SLOOUT      ?= loadgen-report.json
SLOADDR     ?= 127.0.0.1:8093

# Warm-start pack and store-gate settings. PACKDIR is where `make pack`
# writes the shipped |f| <= 5, d <= 12 pack; the store gate builds its
# own throwaway pack over the smaller STOREMAXLEN/STOREMAXD grid.
PACKDIR       ?= packs/default
STOREBASELINE ?= store-baseline.json
STOREOUT      ?= store-report.json
STOREMAXLEN   ?= 4
STOREMAXD     ?= 10

.PHONY: all build test race test-json lint fmt vet bench bench-full bench-gate bench-baseline fuzz-smoke cover slo loadgen-compare pack store-gate serve clean ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Machine-readable test output for trajectory tracking; the exit status is
# go test's, so failures still fail the target.
test-json:
	$(GO) test -race -count=1 -json ./... > $(TESTJSON)

lint: fmt vet

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# One iteration of every benchmark: a compile-and-run smoke test. Numbers
# from this run are NOISY (single iteration); regression decisions use
# bench-full.
bench:
	$(GO) test -run='^$$' -bench=$(BENCH) -benchtime=1x ./... | tee $(BENCHOUT)

# Real measurements for the regression gate: 1s per benchmark, five
# repetitions; the comparator takes the per-benchmark minimum.
bench-full:
	$(GO) test -run='^$$' -bench='$(BENCHFULL)' -benchtime=1s -count=5 ./... | tee $(BENCHFULLOUT)

# The CI benchmark-regression gate: fail when any gated benchmark is more
# than BENCHTHRESHOLD x slower than the committed baseline. The filter is
# BENCHFULL minus the 8-worker sweep variants: those still run and are
# reported [ungated], because on a runner with 2 or fewer vCPUs they
# measure the scheduler. To refresh the baseline (after an intended
# slowdown or a runner change):
#     make bench-full && cp bench-full.txt bench-baseline.txt
bench-gate: bench-full
	$(GO) run ./internal/tools/benchcmp \
		-baseline $(BENCHBASELINE) -current $(BENCHFULLOUT) \
		-threshold $(BENCHTHRESHOLD) \
		-filter 'BenchmarkE[0-9]|BenchmarkSweep[A-Za-z]*/(serial|parallel1)$$|BenchmarkConstructCube|BenchmarkColumnBuild|BenchmarkRankUnrank|BenchmarkMSBFS|BenchmarkThetaAnalyze'

# Regenerate the committed baseline with the exact flags the gate uses
# (-benchtime=1s -count=5). Run on a quiet machine after an intended
# slowdown, a deliberate speedup, or a runner-class change, and commit
# the refreshed bench-baseline.txt so the gate measures future PRs
# honestly.
bench-baseline: bench-full
	cp $(BENCHFULLOUT) $(BENCHBASELINE)

# Short fuzz runs of every Fuzz target in the module (go test accepts a
# single -fuzz pattern per package invocation, hence the loop). The
# targets are cross-checking properties (DFA vs naive scan, rank/unrank
# inversion, implicit vs explicit backend), so even $(FUZZTIME) per
# target catches representation bugs quickly.
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz' || true); \
		for t in $$targets; do \
			echo "== fuzz $$pkg $$t ($(FUZZTIME))"; \
			$(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) $$pkg; \
		done; \
	done

# Coverage gate on the library packages: fails below COVERMIN%.
cover:
	$(GO) test -count=1 -coverprofile=$(COVEROUT) ./internal/...
	@total=$$($(GO) tool cover -func=$(COVEROUT) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "coverage: $$total% (floor $(COVERMIN)%)"; \
	awk -v t="$$total" -v min="$(COVERMIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVERMIN)% floor"; exit 1; }

# Latency-SLO gate: build gfc-serve and gfc-loadgen, run a $(SLODUR)
# mixed-profile load at concurrency $(SLOCONC) against a local server,
# and fail when the committed $(SLOBASELINE) thresholds are breached.
# The loadgen report (JSON) lands in $(SLOOUT) for the CI step summary.
slo:
	@set -e; bindir=$$(mktemp -d); \
	$(GO) build -o $$bindir/gfc-serve ./cmd/gfc-serve; \
	$(GO) build -o $$bindir/gfc-loadgen ./cmd/gfc-loadgen; \
	$$bindir/gfc-serve -addr $(SLOADDR) & srv=$$!; \
	trap "kill $$srv 2>/dev/null || true; rm -rf $$bindir" EXIT; \
	$$bindir/gfc-loadgen -addr http://$(SLOADDR) -waitready 15s \
		-duration $(SLODUR) -concurrency $(SLOCONC) -profile mixed \
		-f 11 -d 32 -slo $(SLOBASELINE) | tee $(SLOOUT)

# In-process batched-vs-unbatched A/B for one (d, f) class at high
# concurrency — the comparison committed in docs/loadgen-comparison.md.
# In-process transport isolates the service stack from loopback-TCP
# noise; see that document for the methodology.
loadgen-compare:
	@set -e; bindir=$$(mktemp -d); \
	trap "rm -rf $$bindir" EXIT; \
	$(GO) build -o $$bindir/gfc-loadgen ./cmd/gfc-loadgen; \
	for seed in 1 2 3 4 5; do \
		echo "== pair $$seed: batched"; \
		$$bindir/gfc-loadgen -inprocess -duration 10s -warmup 2s \
			-concurrency 32 -profile rank -f 11 -d 32 -seed $$seed; \
		echo "== pair $$seed: unbatched"; \
		$$bindir/gfc-loadgen -inprocess -batch-disabled -duration 10s -warmup 2s \
			-concurrency 32 -profile rank -f 11 -d 32 -seed $$seed; \
	done

# Build the shipped warm-start pack: artifacts + verdict sidecar for
# every |f| <= 5, d <= 12 cell. Mount it with gfc-serve -warm-pack.
pack:
	$(GO) run ./cmd/gfc-pack -dir $(PACKDIR)

# Cold-vs-warm A/B for server restarts: the `first` profile sweeps every
# canonical class cell of the gate grid exactly once, so every request
# pays first-touch backend resolution — a build on the cold server, an
# artifact mmap-load on the warm one. The cold pass is printed for
# comparison; the warm pass is the gate, checked against the committed
# $(STOREBASELINE) first-request p99 threshold.
store-gate:
	@set -e; bindir=$$(mktemp -d); packdir=$$(mktemp -d); \
	trap "rm -rf $$bindir $$packdir" EXIT; \
	$(GO) build -o $$bindir/gfc-pack ./cmd/gfc-pack; \
	$(GO) build -o $$bindir/gfc-loadgen ./cmd/gfc-loadgen; \
	echo "== building gate pack (|f| <= $(STOREMAXLEN), d <= $(STOREMAXD))"; \
	$$bindir/gfc-pack -dir $$packdir -maxflen $(STOREMAXLEN) -maxd $(STOREMAXD) >/dev/null; \
	echo "== cold restart sweep (no store)"; \
	$$bindir/gfc-loadgen -inprocess -profile first \
		-first-maxlen $(STOREMAXLEN) -first-maxd $(STOREMAXD); \
	echo "== warm restart sweep (-warm-pack)"; \
	$$bindir/gfc-loadgen -inprocess -profile first \
		-first-maxlen $(STOREMAXLEN) -first-maxd $(STOREMAXD) \
		-warm-pack $$packdir -slo $(STOREBASELINE) | tee $(STOREOUT)

serve: build
	$(GO) run ./cmd/gfc-serve

clean:
	rm -f $(TESTJSON) $(BENCHOUT) $(BENCHFULLOUT) $(COVEROUT) $(SLOOUT) $(STOREOUT)

ci: lint build test-json bench
