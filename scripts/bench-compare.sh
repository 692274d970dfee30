#!/usr/bin/env bash
# Benchmark ledger check: compares the change side of a committed
# BENCH_<pr>.json ledger with its parent side, metric by metric.
#
# A ledger records one change's benchmark comparison, machine-readably:
# the parent and change git revs, `nproc`, `run_seconds`, and per
# workload and side ("parent", "change") the runs of the repository
# benchmark (BENCHMARK.json's command, alternating sides): the run
# count, the seeds, the attempted and failed ops of each run, and each
# end-to-end metric's median and interquartile range over the runs.
#
# The script prints every end-to-end metric's change/parent median
# ratio and exits non-zero when a metric is worse than the parent by
# more than its BENCHMARK.json bound, or when the share of failed ops
# rose. It runs no benchmark.
#
# A ledger whose change claims a gain carries
# `"claim": {"workload": "<workload>", "metric": "<end-to-end metric>"}`.
# The script then also prints that metric's change/parent median ratio
# and exits non-zero unless the change median beats the parent median
# in the metric's BENCHMARK.json `better` direction. A ledger without
# the field claims nothing and checks as above.
#
# Usage: bash scripts/bench-compare.sh BENCH_16.json   (CI runs it on
#        the committed ledger)
set -euo pipefail

cd "$(dirname "$0")/.."

ledger="${1:?usage: bash scripts/bench-compare.sh <ledger.json>}"

python3 - "$ledger" BENCHMARK.json <<'PY'
import json
import sys

ledger = json.load(open(sys.argv[1]))
metrics = json.load(open(sys.argv[2]))["end_to_end"]

print(f"{sys.argv[1]}: parent {ledger['parent_rev']} -> change {ledger['change_rev']}, "
      f"nproc {ledger['nproc']}, run_seconds {ledger['run_seconds']}")
failures = []
for workload, sides in ledger["workloads"].items():
    parent, change = sides["parent"], sides["change"]
    print(f"{workload}: {parent['runs']} parent / {change['runs']} change runs")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        p, c = parent["metrics"][name]["median"], change["metrics"][name]["median"]
        ratio = c / p if p else float("inf") if c else 1.0
        worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
        verdict = "WORSE" if worse > bound else "ok"
        print(f"  {name:<14} parent {p:>12.4f}  change {c:>12.4f}  "
              f"ratio {ratio:6.3f}  (bound {bound})  {verdict}")
        if verdict != "ok":
            failures.append(f"{workload} {name} ratio {ratio:.3f} beyond bound {bound}")
    share = {
        side: sum(s["failed_ops"]) / max(sum(s["attempted_ops"]), 1)
        for side, s in (("parent", parent), ("change", change))
    }
    print(f"  failed-op share: parent {share['parent']:.6f}, change {share['change']:.6f}")
    if share["change"] > share["parent"]:
        failures.append(f"{workload} failed-op share rose")

claim = ledger.get("claim")
if claim:
    workload, name = claim["workload"], claim["metric"]
    better = next(m["better"] for m in metrics if m["name"] == name)
    sides = ledger["workloads"][workload]
    p = sides["parent"]["metrics"][name]["median"]
    c = sides["change"]["metrics"][name]["median"]
    ratio = c / p if p else float("inf") if c else 1.0
    beats = c < p if better == "lower" else c > p
    print(f"claim: {workload} {name} parent {p:.4f} change {c:.4f} ratio {ratio:6.3f} "
          f"({better} is better)  {'ok' if beats else 'NOT SHOWN'}")
    if not beats:
        failures.append(f"claimed gain {workload} {name} not shown: ratio {ratio:.3f}")

for f in failures:
    print(f"bench-compare: {f}", file=sys.stderr)
sys.exit(1 if failures else 0)
PY
