#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#   bash relbench/run.sh --workload tcp-mixed --seed 1 --seconds 40 --trace 0
# Build output, the Go build cache and the runs' segment stores all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export RELBENCH_TMP=$out/tmp
# The go command's caches, module cache, settings and telemetry counters
# all go under $out too, and it never reaches for a network.
(cd relbench &&
	GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -buildvcs=false -o "$out/relbench" .) >&2
exec "$out/relbench" "$@"
