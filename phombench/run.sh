#!/usr/bin/env bash
# Build phomd and the benchmark executable from this checkout, then run one
# workload of the repository benchmark. Run from the root of the checkout:
#
#   bash phombench/run.sh --workload warm-serve --seed 1 --seconds 20 --trace 0
#
# The build output goes to stderr; the last line on stdout is the result.
set -euo pipefail
build=.bench_build
dune build --root . --build-dir "$build" --profile release \
  ./bin/phomd.exe ./phombench/main.exe 1>&2
exec "$build/default/phombench/main.exe" --phomd "$build/default/bin/phomd.exe" "$@"
