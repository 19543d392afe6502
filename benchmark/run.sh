#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ of the checkout this script sits in, then runs it with the
# arguments given. Everything it writes (Go build cache, binary, traces)
# stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$here" -o "$build/storebench" .
exec "$build/storebench" -out "$build/out" "$@"
