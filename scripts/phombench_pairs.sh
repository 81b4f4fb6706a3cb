#!/usr/bin/env bash
# Paired comparison of one phombench workload: a base revision against this
# checkout's working tree, measured the way the repository benchmark judges
# a change.
#
#   bash scripts/phombench_pairs.sh BASE WORKLOAD [PAIRS]
#   make phombench-pairs BASE=<rev> WORKLOAD=<w> [PAIRS=10]
#
# BASE is exported with `git archive` into a temporary directory; both trees
# are built and run through their own phombench/run.sh. Pair i runs seed i
# on both sides for BENCHMARK.json's run_seconds; odd pairs run the base
# first, even pairs the change. For every end-to-end metric in
# BENCHMARK.json the report gives both sides' median and quartiles, how
# many pairs the change wins, and whether the change's median is worse
# than the base's by more than the metric's bound. Exits non-zero when a
# run does not end with "correct": true and "failed": 0.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  echo "usage: $0 BASE WORKLOAD [PAIRS]" >&2
  exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_rev" | tar -x -C "$tmp/base"
change=$(pwd)

# one run: its last stdout line goes to $tmp/<side>-<seed>.json
# (a run that fails is reported with the rest)
run() {
  local side=$1 dir=$2 seed=$3
  echo "phombench-pairs: $workload seed $seed, $side" >&2
  (cd "$dir" && bash phombench/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 2>/dev/null) | tail -n 1 >"$tmp/$side-$seed.json" || true
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$tmp/base" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run base "$tmp/base" "$i"
  fi
done

python3 - "$tmp" "$pairs" "$workload" "$base_rev" <<'EOF'
import json, statistics, sys

tmp, pairs, workload, base_rev = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
bench = json.load(open("BENCHMARK.json"))

def load(side, seed):
    try:
        return json.loads(open(f"{tmp}/{side}-{seed}.json").read())
    except (OSError, ValueError):
        return None

runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("base", "change")}
bad = [
    f"{side} seed {i + 1}"
    for side, rs in runs.items()
    for i, r in enumerate(rs)
    if not (r and r.get("correct") is True and r.get("failed") == 0)
]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"{workload}: {pairs} pairs, {bench['run_seconds']} s runs, base {base_rev} vs this checkout")
print(f"{'metric':<16}{'base median [q1, q3]':>32}{'change median [q1, q3]':>34}{'wins':>7}  median vs base")
if not bad:
    for m in bench["end_to_end"]:
        name, better, bound = m["name"], m["better"], m["bound"]
        b = [r["metrics"][name]["value"] for r in runs["base"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        bq, cq = quartiles(b), quartiles(c)
        sign = 1 if better == "higher" else -1
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        # relative change of the median, positive = worse
        worse = sign * (bq[1] - cq[1]) / bq[1] if bq[1] else 0.0
        # a claimed gain must also beat the base's interquartile range
        beats_iqr = sign * (cq[1] - bq[1]) > bq[2] - bq[0]
        verdict = (
            f"WORSE by {worse:.1%}, over its {bound:.0%} bound" if worse > bound
            else f"{-worse:.1%} better, {'beyond' if beats_iqr else 'within'} the base's IQR"
            if worse < 0 else f"{worse:.1%} worse, within its {bound:.0%} bound"
        )
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{name:<16}{fmt(bq):>32}{fmt(cq):>34}{wins:>4}/{pairs}  {verdict}")
        print(f"  {'pairs':<14}" + " ".join(f"{x:.4g}/{y:.4g}" for x, y in zip(b, c)))
for b in bad:
    print(f"FAILED: {b} did not end with \"correct\": true and \"failed\": 0")
sys.exit(1 if bad else 0)
EOF
