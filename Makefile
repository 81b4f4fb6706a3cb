.PHONY: all build check test bench bench-full bench-parallel bench-serve \
	bench-obs bench-recovery bench-exact bench-exact-baseline bench-dp \
	bench-dp-baseline bench-incr bench-incr-baseline bench-fleet serve-smoke \
	serve-smoke-faults chaos-smoke fleet-smoke phombench-smoke ablations micro \
	examples fmt fmt-check ci clean

# worker domains for the parallel runtime; passed through to the bench
# harness (the CLI takes its own --jobs flag)
JOBS ?= 1

all: build

build:
	dune build @all

# full gate: build everything, then the unit + property + cram suites
check:
	dune build @all
	dune runtest

test:
	dune runtest

test-capture:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe -- --jobs $(JOBS) 2>&1 | tee bench_output.txt

bench-full:
	dune exec bench/main.exe -- --full --jobs $(JOBS)

bench-parallel:
	dune exec bench/main.exe -- parallel --jobs $(JOBS) --out BENCH_parallel.json

bench-serve:
	dune exec bench/main.exe -- serve --out BENCH_serve.json

# metrics-on vs metrics-off on the warm-serve path; fails above 2% overhead
bench-obs:
	dune exec bench/main.exe -- obs --out BENCH_obs.json

# cold start vs recovered start to the first answer; fails unless the
# recovered start (snapshot + journal replay) is strictly cheaper
bench-recovery:
	dune exec bench/main.exe -- recovery --out BENCH_recovery.json

# legacy colouring B&B vs the bitset MWC engine on the tracked seeded
# instances; fails below the 10x step-speedup floor or on >20% regression
# against the checked-in baseline — the same gate the bench-exact CI job runs
bench-exact:
	dune exec bench/main.exe -- exact --out BENCH_exact.json \
		--check-against bench/baselines/BENCH_exact.json

# refresh the checked-in baseline after an intentional perf change (run on a
# quiet machine; steps are deterministic, times carry the slack)
bench-exact-baseline:
	dune exec bench/main.exe -- exact --out bench/baselines/BENCH_exact.json

# tree-decomposition DP vs the MWC engine on the tracked low-treewidth
# instances; fails below the 2x step-speedup floor or on >20% regression
# against the checked-in baseline — the same gate the bench-dp CI job runs
bench-dp:
	dune exec bench/main.exe -- dp --out BENCH_dp.json \
		--check-against bench/baselines/BENCH_dp.json

bench-dp-baseline:
	dune exec bench/main.exe -- dp --out bench/baselines/BENCH_dp.json

# addedge/deledge + warm re-solve vs unload + reload + cold solve on the
# tracked seeded instances; fails unless the incremental path wins on every
# instance, both paths agree on every answer, and no instance regresses
# against the checked-in baseline — the same gate the bench-incr CI job runs
bench-incr:
	dune exec bench/main.exe -- incr --out BENCH_incr.json \
		--check-against bench/baselines/BENCH_incr.json

bench-incr-baseline:
	dune exec bench/main.exe -- incr --out bench/baselines/BENCH_incr.json

# start phomd on a temp socket, run cold/warm/budget-tripped client queries,
# assert clean shutdown — the same flow as the CI daemon-smoke job
serve-smoke:
	sh scripts/serve_smoke.sh

# the smoke plus a fault-injection soak: misbehaving peers alongside
# healthy retrying clients, under an injected per-solve delay
serve-smoke-faults:
	sh scripts/serve_smoke.sh --faults

# kill -9 a durable phomd mid-solve, restart on the same state dir, require
# a byte-identical warm reply; then corrupt the snapshot and require
# quarantine — the same flow as the CI chaos-smoke job
chaos-smoke:
	sh scripts/chaos_smoke.sh

# three TCP replicas behind the router: kill -9 the owner mid-solve,
# require the byte-identical failover answer, restart it and require a
# clean rejoin — the same flow as the CI fleet-smoke job
fleet-smoke:
	sh scripts/fleet_smoke.sh

# the repository benchmark's oracle against a real phomd: every workload
# for a short window plus one traced run; fails unless every answer checks
# out ("correct": true, "failed": 0) — the same flow as the CI
# phombench-smoke job
phombench-smoke:
	sh scripts/phombench_smoke.sh

# routed p50/p99 against 1 vs 3 replicas plus the kill -9 failover blip;
# fails when any routed request errors or the blip exceeds its bound
bench-fleet:
	dune exec bench/main.exe -- fleet --out BENCH_fleet.json

ablations:
	dune exec bench/main.exe -- ablations

micro:
	dune exec bench/main.exe -- micro

examples:
	dune exec examples/quickstart.exe
	dune exec examples/plagiarism_detection.exe
	dune exec examples/schema_embedding.exe
	dune exec examples/anomaly_detection.exe
	dune exec examples/web_mirror_detection.exe

# formatting is opt-in until the seed tree has its bulk reformat: both
# targets no-op with a note when ocamlformat is not installed
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "ocamlformat not installed; skipping (opam install ocamlformat.0.26.2)"; \
	fi

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping (opam install ocamlformat.0.26.2)"; \
	fi

# exactly what .github/workflows/ci.yml runs (build-test + bench-smoke),
# so a green `make ci` predicts a green pipeline
ci:
	dune build @all
	dune runtest
	dune exec bench/main.exe -- micro
	dune exec bench/main.exe -- parallel --jobs 4 --out BENCH_parallel.json
	sh scripts/serve_smoke.sh
	sh scripts/serve_smoke.sh --faults
	dune exec bench/main.exe -- serve --out BENCH_serve.json
	dune exec bench/main.exe -- obs --out BENCH_obs.json
	sh scripts/chaos_smoke.sh
	dune exec bench/main.exe -- recovery --out BENCH_recovery.json
	sh scripts/fleet_smoke.sh
	dune exec bench/main.exe -- fleet --out BENCH_fleet.json
	sh scripts/phombench_smoke.sh
	dune exec bench/main.exe -- exact --out BENCH_exact.json \
		--check-against bench/baselines/BENCH_exact.json
	dune exec bench/main.exe -- dp --out BENCH_dp.json \
		--check-against bench/baselines/BENCH_dp.json
	dune exec bench/main.exe -- incr --out BENCH_incr.json \
		--check-against bench/baselines/BENCH_incr.json

clean:
	dune clean
