#!/usr/bin/env bash
# Runs one workload once per seed and prints each metric's median and
# interquartile spread across the runs (see --spread in main.go):
#
#   bash bench/steady.sh resolve-scatter 10 [trace]
#
# runs seeds 1..10 with tracing off (trace 1 for the per-layer metrics).
# Run it from the repository root.
set -euo pipefail
workload=$1 runs=${2:-10} trace=${3:-0}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
for seed in $(seq 1 "$runs"); do
	bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1
done | "${CARGO_TARGET_DIR:-.bench_build}/bench" --spread
