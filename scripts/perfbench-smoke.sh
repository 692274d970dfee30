#!/usr/bin/env bash
# Benchmark smoke run: EXECUTE every perfbench workload end to end,
# briefly.
#
# CI builds `perfbench/` and runs its tests, but those run only reduced
# phases of some workloads. This script runs the repository benchmark
# command from BENCHMARK.json once per workload with a 1 s timed phase
# (plus compile-churn once more with the layer trace on), each under a
# wall-clock `timeout`, so a workload that fails its correctness gate,
# fails an op, or hangs fails CI. The printed numbers are NOT
# measurements: a 1 s run says nothing about speed.
#
# Each run must end with perfbench's JSON result line reading
# `"correct": true` and `"failed": 0`.
#
# Every offline build of the package rewrites the benchmark's stale
# `perfbench/Cargo.lock`, which only a benchmark change may commit, so
# the lock is saved before the build and restored on exit.
#
# Usage: bash scripts/perfbench-smoke.sh   (from the repo root; CI runs it)
set -euo pipefail

cd "$(dirname "$0")/.."

# Per-run wall-clock bound. A run takes a few seconds once built; the
# build itself is a separate step below, outside every bound.
run_timeout=120

lock_backup="$(mktemp)"
cp perfbench/Cargo.lock "$lock_backup"
trap 'cp "$lock_backup" perfbench/Cargo.lock; rm -f "$lock_backup"' EXIT

mapfile -t command < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

echo "perfbench smoke: building"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

run() {
    local workload="$1" trace="$2" out
    echo "perfbench smoke: $workload (trace $trace)"
    local started=$SECONDS
    if ! out="$(timeout "$run_timeout" "${command[@]}" \
        --workload "$workload" --seconds 1 --trace "$trace")"; then
        echo "perfbench smoke: $workload (trace $trace) failed or ran past ${run_timeout} s" >&2
        printf '%s\n' "$out" | tail -5 >&2
        exit 1
    fi
    local last
    last="$(printf '%s\n' "$out" | tail -1)"
    if ! python3 -c '
import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
' "$last"; then
        echo "perfbench smoke: $workload (trace $trace) ended with: $last" >&2
        exit 1
    fi
    echo "perfbench smoke: $workload (trace $trace) ok in $((SECONDS - started)) s"
}

for workload in "${workloads[@]}"; do
    run "$workload" 0
done
run compile-churn 1
echo "perfbench smoke: every workload ran to completion"
