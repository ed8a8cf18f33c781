#!/usr/bin/env bash
# Builds the benchmark and the proraced daemon from this checkout's sources,
# then runs one benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload analyze-mysql --seed 1 --seconds 30 --trace 0
#
# Binaries, the Go build cache and configuration, traces, daemon journals
# and per-run records all stay under .bench_build/ in the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go -C "$root" build -o "$out/proraced" ./cmd/proraced
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -daemon "$out/proraced" -workdir "$out" "$@"
