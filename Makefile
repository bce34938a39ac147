# cdml — Continuous Deployment of Machine Learning Pipelines (EDBT 2019)

GO ?= go

.PHONY: all check build vet lint analysistest test test-short race cover bench bench-smoke bench-record bench-gate chaos fuzz fuzz-smoke experiments examples clean

all: build vet test

# The full pre-merge gate: compile, vet + custom analyzers, then the whole
# suite under the race detector.
check: build lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs go vet plus the repo's own analyzers (globalrand, floateq,
# mustcheck, hotpath, guardedby, snapfreeze, ctxflow, determinism — see
# internal/analysis) and the //lint:allow format audit. Fails on any finding.
lint: vet
	$(GO) run ./cmd/cdml-lint ./...

# analysistest runs the analyzers' own test suite: the framework units plus
# every fixture package under internal/analysis/testdata (positive findings,
# ordered multi-diagnostic want lines, and suppression coverage).
analysistest:
	$(GO) test ./internal/analysis/...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Coverage over everything except analyzer test fixtures (testdata is not a
# real package tree; the explicit filter keeps the profile honest even if the
# fixtures ever gain buildable packages).
cover:
	$(GO) test -short -coverprofile=cover.out $$($(GO) list ./internal/... . | grep -v '/testdata')
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# One-iteration CI smoke of the data-parallel training benches: proves the
# sharded-update and parallel-gather paths run at 1 and NumCPU workers
# without measuring them (use `make bench` for numbers).
bench-smoke:
	$(GO) test -bench 'BenchmarkParallel|BenchmarkPredictDuringTraining' -benchtime 1x -benchmem -run '^$$' .

# Record this PR's benchmark baseline: make bench-record PR=7 writes
# BENCH_7.json (commit it — the file is the repo's perf trajectory).
bench-record:
	$(GO) run ./cmd/cdml-bench -record -pr $(PR)

# CI regression gate: run the hot-path suite and compare against the newest
# committed BENCH_*.json. allocs/op is gated strictly (0 → any fails);
# ns/op uses a 3x threshold because the baseline and the CI runner are
# different machines — the gate exists to catch step changes, not noise.
bench-gate:
	$(GO) run ./cmd/cdml-bench -compare -threshold 3.0 -out bench_current.json

# Fault-injection suite (skipped by -short runs): kill-and-recover
# bit-identity, torn-checkpoint fallback, kill-with-queued-ingest WAL
# replay, torn WAL tails, flaky-storage healing, and replica
# kill-resync/swap-under-load, all under the race detector.
chaos:
	$(GO) test -race -run '^TestChaos' ./internal/core/ ./internal/data/ ./internal/serve/ ./internal/wal/ -v

# Brief fuzzing passes over the wire-format parsers and the frame decoder.
fuzz:
	$(GO) test ./internal/dataset/ -fuzz FuzzURLParser -fuzztime 15s
	$(GO) test ./internal/dataset/ -fuzz FuzzTaxiParser -fuzztime 15s
	$(GO) test ./internal/dataset/ -fuzz FuzzRatingsParser -fuzztime 15s
	$(GO) test ./internal/snapstream/ -fuzz FuzzNextFrame -fuzztime 15s

# 10-second CI smoke of the same fuzz targets.
fuzz-smoke:
	$(GO) test ./internal/dataset/ -fuzz FuzzURLParser -fuzztime 10s
	$(GO) test ./internal/dataset/ -fuzz FuzzTaxiParser -fuzztime 10s
	$(GO) test ./internal/dataset/ -fuzz FuzzRatingsParser -fuzztime 10s
	$(GO) test ./internal/snapstream/ -fuzz FuzzNextFrame -fuzztime 10s

# Regenerate every table and figure of the paper at the default size.
experiments:
	$(GO) run ./cmd/experiments -exp all -scale medium
	$(GO) run ./cmd/experiments -exp ext

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/customcomponent
	$(GO) run ./examples/driftdetect
	$(GO) run ./examples/recsys
	$(GO) run ./examples/checkpointrestore
	$(GO) run ./examples/urlclassify -days 15 -chunks-per-day 4 -rows 40
	$(GO) run ./examples/taxiduration -chunks 120 -rows 60

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_current.json
