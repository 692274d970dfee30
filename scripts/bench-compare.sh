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
# A metric may also carry `values`: one number per run, in the order of
# its side's `seeds`, e.g.
#   "batch_p90_ms": {"median": 1.26, "iqr": 0.05, "unit": "ms",
#                    "values": [1.21, 1.30, ...]}
#
# The script prints every end-to-end metric's change/parent median
# ratio and exits non-zero when a metric is worse than the parent by
# more than its BENCHMARK.json bound, or when the share of failed ops
# rose. It runs no benchmark.
#
# A ledger whose change claims a gain carries
# `"claim": {"workload": "<workload>", "metric": "<end-to-end metric>"}`.
# The script then also prints that metric's change/parent median ratio
# and exits non-zero unless
#   - the change median beats the parent median in the metric's
#     BENCHMARK.json `better` direction,
#   - by more than the parent's interquartile range, and
#   - when both sides carry `values`, the change wins at least 9 of
#     every 10 pairs of runs, paired by seed, a tie winning for neither.
# A ledger without the field claims nothing and checks as above.
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
    iqr = sides["parent"]["metrics"][name]["iqr"]
    ratio = c / p if p else float("inf") if c else 1.0

    def better_than(x, y):
        return x < y if better == "lower" else x > y

    beats = better_than(c, p) and abs(c - p) > iqr
    print(f"claim: {workload} {name} parent {p:.4f} change {c:.4f} ratio {ratio:6.3f} "
          f"({better} is better), parent IQR {iqr:.4f}  {'ok' if beats else 'NOT SHOWN'}")
    if not beats:
        failures.append(f"claimed gain {workload} {name} not shown: ratio {ratio:.3f}, "
                        f"medians {abs(c - p):.4f} apart against a parent IQR of {iqr:.4f}")
    values = [sides[side]["metrics"][name].get("values") for side in ("parent", "change")]
    if None not in values:
        parent_by_seed = dict(zip(sides["parent"]["seeds"], values[0]))
        pairs = [(parent_by_seed[seed], v) for seed, v in zip(sides["change"]["seeds"], values[1])
                 if seed in parent_by_seed]
        wins = sum(better_than(v, pv) for pv, v in pairs)
        won = bool(pairs) and 10 * wins >= 9 * len(pairs)
        print(f"claim: the change wins {wins} of {len(pairs)} seed-matched pairs  "
              f"{'ok' if won else 'NOT SHOWN'}")
        if not won:
            failures.append(f"claimed gain {workload} {name} won {wins} of {len(pairs)} pairs")

for f in failures:
    print(f"bench-compare: {f}", file=sys.stderr)
sys.exit(1 if failures else 0)
PY
