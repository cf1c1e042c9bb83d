#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: build the benchmark from
# source into the checkout's .bench_build/ (Go's build cache and the go
# command's telemetry counters included, so nothing is written outside the
# checkout) and run it with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload hot_single --seed 7 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/spal-benchmark" .
exec "$build/spal-benchmark" "$@"
