#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given — the
# command BENCHMARK.json names. Everything the build writes (the binary, Go's
# build cache and temporary files) stays under .bench_build in the checkout.
# Run it from the root of the checkout: bash benchmark/run.sh --workload ...
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -out "$build/out" "$@"
