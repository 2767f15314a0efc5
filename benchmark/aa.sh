#!/usr/bin/env bash
# A/A check: two interleaved sets of N end-to-end runs of the current
# tree, run i of either set on seed i. Prints, per workload and metric,
# both medians, the quartiles and spread of set A, and the difference
# between the medians against the metric's bound in BENCHMARK.json; fails
# when a difference or a spread exceeds its bound (the spread of setup_s
# is printed, not judged).
#
#   benchmark/aa.sh N [--seconds S]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

n="${1:?usage: benchmark/aa.sh N [--seconds S]}"
shift
out="${CARGO_TARGET_DIR:-target}/benchmark-aa"
rm -rf "$out"
mkdir -p "$out"

workloads=$(bash benchmark/run.sh --list)
for i in $(seq 1 "$n"); do
    for set in A B; do
        for workload in $workloads; do
            echo "set $set run $i/$n $workload" >&2
            bash benchmark/run.sh --workload "$workload" --seed "$i" --trace 0 "$@" \
                | tail -n 1 >>"$out/$set.$workload.jsonl"
        done
    done
done

python3 - "$out" $workloads <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
failed = False
for workload in workloads:
    runs = {s: [json.loads(l) for l in open(f"{out}/{s}.{workload}.jsonl")] for s in "AB"}
    bad = [r for s in "AB" for r in runs[s] if not r["correct"] or r["failed"]]
    print(f"\n{workload}: {len(runs['A'])}+{len(runs['B'])} runs, {len(bad)} incorrect")
    failed |= bool(bad)
    print(f"  {'metric':<22}{'median A':>14}{'median B':>14}{'q1 A':>14}{'q3 A':>14}"
          f"{'spread':>9}{'B vs A':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = ([r["metrics"][name]["value"] for r in runs[s]] for s in "AB")
        med_a, med_b = statistics.median(a), statistics.median(b)
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
        spread = (q3 - q1) / med_a
        worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
        verdict = ""
        if abs(worse) > bound or (name != "setup_s" and spread > bound):
            verdict, failed = "  EXCEEDS", True
        print(f"  {name:<22}{med_a:>14.6g}{med_b:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.2%}{worse:>+9.2%}{bound:>7.0%}{verdict}")
sys.exit(1 if failed else 0)
EOF
