#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload lib_churn --seed 1 --seconds 12 --trace 0
#
# Everything the build and the runs leave behind stays in .bench_build:
# the Go build cache included, so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
# The go command keeps its settings and telemetry counters under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
# The revision is stamped by the benchmark itself, from .git, so the build
# does not depend on a working git.
go -C "$root/perfbench" build -buildvcs=false -o "$root/.bench_build/perfbench" .
exec "$root/.bench_build/perfbench" "$@"
