#!/usr/bin/env bash
# Builds the benchmark and the simd server from source into .bench_build,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-32 --seed 1 --seconds 25 --trace 0
#
# Everything it writes (build cache, binaries, profiles, span logs, the
# simd data directory) stays under .bench_build in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local GOPROXY=off

# Compile time is paid here, before the benchmark starts its clocks.
go -C perfbench build -o "$out/perfbench" .
go build -o "$out/simd" ./cmd/simd

exec "$out/perfbench" -out "$out/perfbench-out" -simd "$out/simd" "$@"
