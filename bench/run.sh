#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload resolve-scatter --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and traced
# runs' spans stay under .bench_build/ (or $CARGO_TARGET_DIR, when set) in
# the checkout; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
