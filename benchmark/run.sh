#!/usr/bin/env bash
# Entry point of the benchmark driver (see BENCHMARK.json). It builds
# the benchmark from the checkout's source and runs it. The Go build
# cache lives inside the checkout too, so that a run reads and writes
# nothing outside it; by hand, `go run ./benchmark` does the same with
# your usual cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOTOOLCHAIN=local GOWORK=off
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
