#!/usr/bin/env bash
# Benchmark ledger maker: runs the repository benchmark on two commits in
# alternating pairs and writes a BENCH_<pr>.json ledger.
#
# Each rev is `git archive`d into its own temporary directory, and
# perfbench is built there from that rev's source. Then, for pair
# 1..PAIRS and every workload in BENCHMARK.json, the benchmark command
# runs once per side with `--workload <w> --seed <FIRST_SEED + pair - 1>
# --seconds <run_seconds> --trace 0`, from that side's directory; odd
# pairs run the parent first, even pairs the change. A run that does
# not end with a JSON result line reading `"correct": true` stops the
# script with a non-zero exit (a failed op does not: the ledger counts
# failed ops, and `bench-compare.sh` checks their share).
#
# The ledger has the layout `scripts/bench-compare.sh` documents: `pr`
# (from a BENCH_<pr>.json output name, else null), both full revs,
# `nproc`, `run_seconds`, `command`, `order`, an optional `claim`, and
# per workload and side the `runs`, `seeds`, `attempted_ops`,
# `failed_ops` and `correct`, and per end-to-end metric its `median`,
# its `iqr` (inclusive quartiles) and its per-run `values` in seed order.
#
# Run it on an otherwise idle machine: 10 pairs of 20 s runs over three
# workloads take tens of minutes, so CI does not run it; CI's
# bench-ledger job checks the ledgers it writes. Both temporary
# directories are removed on exit, and every run finishes before the
# next starts, so no process outlives the script.
#
# Usage: bash scripts/bench-pairs.sh [--claim <workload>:<metric>] \
#            <parent-rev> <change-rev> <output.json> <pairs> <first-seed>
#   e.g. bash scripts/bench-pairs.sh --claim compile-churn:focus_p50_ms \
#            HEAD~1 HEAD BENCH_26.json 10 2601
set -euo pipefail

cd "$(dirname "$0")/.."

claim=""
if [[ "${1:-}" == "--claim" ]]; then
    claim="${2:?--claim needs <workload>:<metric>}"
    shift 2
fi
usage="usage: bash scripts/bench-pairs.sh [--claim <workload>:<metric>] <parent-rev> <change-rev> <output.json> <pairs> <first-seed>"
parent_rev="$(git rev-parse --verify "${1:?$usage}^{commit}")"
change_rev="$(git rev-parse --verify "${2:?$usage}^{commit}")"
output="${3:?$usage}"
pairs="${4:?$usage}"
first_seed="${5:?$usage}"
[[ "$pairs" =~ ^[1-9][0-9]*$ && "$first_seed" =~ ^[0-9]+$ ]] || { echo "$usage" >&2; exit 2; }

# The benchmark definition is read from the change side's checkout.
config="$(git show "$change_rev:BENCHMARK.json")"
mapfile -t command < <(python3 -c 'import json, sys; print("\n".join(json.loads(sys.argv[1])["command"]))' "$config")
mapfile -t workloads < <(python3 -c 'import json, sys; print("\n".join(w["name"] for w in json.loads(sys.argv[1])["workloads"]))' "$config")
run_seconds="$(python3 -c 'import json, sys; print(json.loads(sys.argv[1])["run_seconds"])' "$config")"
if [[ -n "$claim" ]]; then
    python3 -c '
import json, sys
config = json.loads(sys.argv[1])
workload, _, metric = sys.argv[2].partition(":")
ok = workload in {w["name"] for w in config["workloads"]} \
    and metric in {m["name"] for m in config["end_to_end"]}
sys.exit(0 if ok else 1)
' "$config" "$claim" || { echo "bench-pairs: --claim $claim names no workload:end-to-end metric" >&2; exit 2; }
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
results="$work/results.jsonl"
: > "$results"

for side in parent change; do
    rev="${side}_rev"
    mkdir "$work/$side"
    git archive "${!rev}" | tar -x -C "$work/$side"
    echo "bench-pairs: building perfbench at $side ${!rev}" >&2
    (cd "$work/$side" && cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

run() {
    local side="$1" workload="$2" seed="$3" out last
    out="$(cd "$work/$side" && "${command[@]}" \
        --workload "$workload" --seed "$seed" --seconds "$run_seconds" --trace 0)" || {
        echo "bench-pairs: $workload seed $seed on the $side side exited non-zero" >&2
        exit 1
    }
    last="$(printf '%s\n' "$out" | tail -1)"
    python3 -c '
import json, sys
side, workload, seed, line = sys.argv[1:]
result = json.loads(line)
if result.get("correct") is not True:
    sys.exit(f"bench-pairs: {workload} seed {seed} on the {side} side was incorrect: {line}")
print(json.dumps({"side": side, "workload": workload, "seed": int(seed), "result": result}))
' "$side" "$workload" "$seed" "$last" >> "$results"
    echo "bench-pairs: $workload seed $seed $side done" >&2
}

for ((pair = 1; pair <= pairs; pair++)); do
    seed=$((first_seed + pair - 1))
    if ((pair % 2 == 1)); then order=(parent change); else order=(change parent); fi
    for workload in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            run "$side" "$workload" "$seed"
        done
    done
done

python3 - "$results" "$output" "$parent_rev" "$change_rev" "$(nproc)" "$run_seconds" \
    "$first_seed" "$claim" "${command[*]}" <<'PY'
import json
import re
import statistics
import sys

results, output, parent_rev, change_rev, nproc, run_seconds, first_seed, claim, command = sys.argv[1:]
runs = [json.loads(line) for line in open(results)]
pr = re.fullmatch(r"BENCH_(\d+)\.json", output.rsplit("/", 1)[-1])

def summary(values):
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return statistics.median(values), q[2] - q[0]

workloads = {}
for r in runs:
    side = workloads.setdefault(r["workload"], {}).setdefault(r["side"], [])
    side.append(r)
ledger = {
    "pr": int(pr.group(1)) if pr else None,
    "parent_rev": parent_rev,
    "change_rev": change_rev,
    "nproc": int(nproc),
    "run_seconds": int(run_seconds),
    "command": f"{command} --workload <w> --seed <seed> --seconds {run_seconds} --trace 0",
    "order": f"pairs alternate which side runs first (odd pairs parent first); "
             f"seed {int(first_seed) - 1} + pair; each pair ran every workload in turn",
}
if claim:
    workload, _, metric = claim.partition(":")
    ledger["claim"] = {"workload": workload, "metric": metric}
ledger["workloads"] = {}
for workload, sides in workloads.items():
    entry = {}
    for side in ("parent", "change"):
        side_runs = sorted(sides[side], key=lambda r: r["seed"])
        metrics = {}
        for name, m in side_runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in side_runs]
            median, iqr = summary(values)
            metrics[name] = {"median": median, "iqr": iqr, "unit": m["unit"], "values": values}
        entry[side] = {
            "runs": len(side_runs),
            "seeds": [r["seed"] for r in side_runs],
            "attempted_ops": [r["result"]["attempted"] for r in side_runs],
            "failed_ops": [r["result"]["failed"] for r in side_runs],
            "correct": all(r["result"]["correct"] is True for r in side_runs),
            "metrics": metrics,
        }
    ledger["workloads"][workload] = entry
with open(output, "w") as f:
    json.dump(ledger, f, indent=2)
    f.write("\n")
print(f"bench-pairs: wrote {output}", file=sys.stderr)
PY
