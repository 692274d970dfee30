#!/usr/bin/env bash
# Bench smoke run: EXECUTE every Criterion target, briefly.
#
# `cargo bench --no-run` only proves the targets compile; a bench that
# panics on its first iteration (a broken fixture, a tripped internal
# assertion — several targets assert counter reconciliation and
# bit-identity as they run) would sail through CI unnoticed. This script
# runs the full bench suite with a tiny per-benchmark wall-clock budget
# (see INTEXT_BENCH_BUDGET_MS in vendor/criterion), so every target's
# setup and at least one timed iteration of every benchmark actually
# execute. The printed numbers are NOT measurements — for real numbers
# run `cargo bench -p intext-bench` with the default budget.
#
# It also checks the JSON results the harness writes under
# `<target dir>/criterion/`: every bench target wrote at least one
# record, every record carries its fields, and there is one record per
# result line the run printed.
#
# Usage: bash scripts/bench-smoke.sh   (from the repo root; CI runs it)
set -euo pipefail

cd "$(dirname "$0")/.."

# 10 ms per benchmark: one warm-up + at least one timed iteration each,
# keeping the whole 19-target suite in CI-friendly time.
export INTEXT_BENCH_BUDGET_MS="${INTEXT_BENCH_BUDGET_MS:-10}"

target_dir="$(cargo metadata --format-version 1 --no-deps --offline |
    python3 -c 'import json, sys; print(json.load(sys.stdin)["target_directory"])')"
records="$target_dir/criterion"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
rm -rf "$records"

echo "bench smoke: executing all targets with ${INTEXT_BENCH_BUDGET_MS} ms budgets"
cargo bench -p intext-bench --locked 2>&1 | tee "$log"
echo "bench smoke: every target ran to completion"

python3 - "$records" "$log" crates/bench/Cargo.toml <<'PY'
import json
import pathlib
import re
import sys

records, log, manifest = pathlib.Path(sys.argv[1]), sys.argv[2], sys.argv[3]
targets = re.findall(r'\[\[bench\]\]\s*name\s*=\s*"([^"]+)"', open(manifest).read())
fields = {"target", "id", "mean_ns", "best_ns", "iters", "threads", "throughput"}
seen, problems = {}, []
for path in sorted(records.rglob("*.json")):
    record = json.loads(path.read_text())
    missing = fields - record.keys()
    if missing:
        problems.append(f"{path}: missing {sorted(missing)}")
    seen[record.get("target")] = seen.get(record.get("target"), 0) + 1
for target in targets:
    if not seen.get(target):
        problems.append(f"bench target {target} wrote no JSON record")
printed = sum(1 for line in open(log) if " mean / " in line or "(no iterations)" in line)
written = sum(seen.values())
if printed != written:
    problems.append(f"{printed} results printed but {written} JSON records written")
for p in problems:
    print(f"bench smoke: {p}", file=sys.stderr)
if problems:
    sys.exit(1)
print(f"bench smoke: {written} JSON records from {len(targets)} targets under {records}")
PY
