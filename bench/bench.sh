#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/bench.sh --workload census-300k --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the repository root; the first build fills the cache.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
