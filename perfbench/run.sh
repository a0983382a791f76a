#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash perfbench/run.sh --workload onchain --seed 1 --seconds 10 --trace 0
# Everything it writes (Go build cache, binary, data dirs, traces) stays
# under .bench_build/perfbench in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -bench BENCHMARK.json -workdir "$out/work" "$@"
