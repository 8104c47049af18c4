#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload census-exact --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Everything the Go toolchain writes (build
# cache, module cache, temporary files, telemetry) stays under the
# checkout's build directory ($CARGO_TARGET_DIR, default .bench_build), and
# the toolchain never touches the network. Without the repository's sources
# next to perfbench/ the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
