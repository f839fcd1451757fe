#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and
# runs it.  Run from the repository root:
#
#   bash bench/run.sh --workload ref-sweep --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache, Go's local telemetry and configuration,
# temporary files, span logs).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
