#!/bin/sh
# The repository benchmark (phombench) as an answer check against a real
# phomd, not a measurement: every workload for a short window, plus one
# traced warm-serve run and one traced edit-stream run (a durable daemon's
# edits under the tracer). Each run's replies go through the benchmark's
# own oracle; the smoke fails unless every run's last stdout line reports
# "correct": true and "failed": 0.
#
#   sh scripts/phombench_smoke.sh
#
# Cache-churn needs five whole 64-request blocks inside its window, hence
# the longer one.
set -eu
cd "$(dirname "$0")/.."

run() {
  out=$(bash phombench/run.sh --seed 1 "$@") || {
    echo "phombench-smoke: FAILED ($*): the run exited non-zero"
    exit 1
  }
  last=$(printf '%s\n' "$out" | tail -n 1)
  case "$last" in
    *'"correct": true,'*'"failed": 0,'*)
      echo "phombench-smoke: ok ($*)" ;;
    *)
      printf '%s\n' "$out" | tail -n 20
      echo "phombench-smoke: FAILED ($*): $last"
      exit 1 ;;
  esac
}

run --workload warm-serve --seconds 4 --trace 0
run --workload cache-churn --seconds 15 --trace 0
run --workload exact-tier --seconds 4 --trace 0
run --workload edit-stream --seconds 4 --trace 0
run --workload warm-serve --seconds 4 --trace 1
run --workload edit-stream --seconds 4 --trace 1
echo "phombench-smoke: OK (four workloads and two traced runs, every answer checked)"
