#!/usr/bin/env bash
# A/A record: two interleaved sets (A B A B …) of all four workloads on the
# same build, each run with another seed, the way the benchmark driver
# compares a parent with a change. Writes perf/baseline/aa.json: for each
# (workload, metric) both medians, their relative gap, the spread
# (interquartile range over median) of each set, and the bound.
#
#   perf/aa.sh [runs-per-set]       default 10, the driver's count
#   perf/aa.sh summarise            recompute aa.json from the last runs
#
# Takes about 2 x runs x 100 s. Keep the machine otherwise idle.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
raw="$here/out/aa_runs.jsonl"
mkdir -p "$here/out" "$here/baseline"
if [[ "$runs" == "summarise" ]]; then runs=0; else : > "$raw"; fi

for ((i = 0; i < runs; i++)); do
  for set in A B; do
    for w in predict_single predict_batch64_wal session_churn train_refresh; do
      # A and B get different seeds, as two driver sets would.
      seed=$((1000 * (i + 1) + $([[ $set == A ]] && echo 0 || echo 500)))
      echo "aa: set $set run $i $w seed $seed" >&2
      line="$("$here/run.sh" "$w" --seed "$seed" | tail -n 1)"
      echo "{\"set\": \"$set\", \"workload\": \"$w\", \"seed\": $seed, \"result\": $line}" >> "$raw"
    done
  done
done

python3 - "$raw" "$here/spec.json" "$here/baseline/aa.json" <<'PY'
import json, statistics, sys

raw, spec_path, out_path = sys.argv[1:4]
spec = json.load(open(spec_path))
bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
runs = [json.loads(line) for line in open(raw)]

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

rows, failed = [], 0
for workload in dict.fromkeys(r["workload"] for r in runs):
    for name, (bound, better) in bounds.items():
        sets = {
            s: [r["result"]["metrics"][name]["value"] for r in runs
                if r["workload"] == workload and r["set"] == s]
            for s in "AB"
        }
        a, b = statistics.median(sets["A"]), statistics.median(sets["B"])
        # How much worse B's median is than A's, in the metric's direction.
        worse = (b - a) / a if better == "lower" else (a - b) / a
        rows.append({
            "workload": workload, "metric": name, "bound": bound,
            "median_a": a, "median_b": b, "gap": abs(b - a) / a, "b_worse_by": worse,
            "spread_a": spread(sets["A"]), "spread_b": spread(sets["B"]),
            "runs_per_set": len(sets["A"]),
        })
    failed += sum(r["result"]["failed"] for r in runs if r["workload"] == workload)

json.dump({"runs_failed_operations": failed, "pairs": rows}, open(out_path, "w"), indent=1)
print(f"{'workload':22}{'metric':15}{'median A':>14}{'median B':>14}{'gap':>8}{'spread A':>10}{'spread B':>10}{'bound':>7}")
for r in rows:
    flag = ""
    if r["gap"] > r["bound"] / 2:
        flag += " GAP>bound/2"
    if r["metric"] != "setup_s" and max(r["spread_a"], r["spread_b"]) > r["bound"] / 3:
        flag += " SPREAD>bound/3"
    print(f"{r['workload']:22}{r['metric']:15}{r['median_a']:14.5g}{r['median_b']:14.5g}"
          f"{r['gap']:8.2%}{r['spread_a']:10.2%}{r['spread_b']:10.2%}{r['bound']:7.2f}{flag}")
print(f"failed operations over all runs: {failed}")
PY
