#!/usr/bin/env bash
# Builds the load generator and cdml-serve from the checkout's sources into
# .bench_build/ and runs one benchmark invocation:
#
#   bash loadbench/run.sh --workload serve-url --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build and module caches, the Go
# tool's temporary files and its telemetry counters (kept under the user
# config directory) live under .bench_build/ too, so the benchmark reads and
# writes only inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C "$root/loadbench" build -o "$out/loadbench" . >&2
go -C "$root/loadbench" build -o "$out/cdml-serve" cdml/cmd/cdml-serve >&2
exec "$out/loadbench" -root "$root" -server "$out/cdml-serve" "$@"
