#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Every
# argument is passed through; see perfbench/README.md. Run from anywhere:
#   bash perfbench/run.sh --workload run-analysis --seed 1 --seconds 22 --trace 0
# The Go build cache and all outputs stay under .bench_build/ in the
# checkout; nothing is downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
