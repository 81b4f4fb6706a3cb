.PHONY: all build check test test-capture bench bench-full bench-parallel \
	bench-obs bench-recovery bench-exact bench-exact-baseline bench-dp \
	bench-dp-baseline bench-fleet bench-gates serve-smoke serve-smoke-faults \
	chaos-smoke fleet-smoke phombench-smoke phombench-pairs ablations micro \
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

# the gated suites (bench/bench_gate.ml holds every bound and rule):
#   exact     legacy colouring B&B vs the bitset MWC engine: >= 10x fewer
#             steps, less total time, same optima
#   dp        tree-decomposition DP vs the MWC engine: >= 2x fewer steps,
#             same optima
#   obs       metrics-on vs metrics-off warm solves: <= 2% overhead
#   recovery  recovered start strictly cheaper than a cold one, same answers
#   fleet     routed latency, 1 vs 3 replicas; failover blip <= 10 s, same
#             answer
#   parallel  sequential vs the domain pool: same output, speedup reported
# `make bench-<suite>` runs one against its checked-in baseline when it has
# one; a suite fails on a broken guard, a regressed baseline row (steps
# +20%, times +20% plus 0.25 s) or a built-in liveness check that does not
# trip. `make bench-gates` runs every suite, then fails if any failed — the
# CI bench-gates job runs exactly this.
GATED = exact dp obs recovery fleet parallel

$(addprefix bench-,$(GATED)): bench-%:
	dune build bench/main.exe bin/phomd.exe
	./_build/default/bench/main.exe $* --out BENCH_$*.json \
		$(if $(wildcard bench/baselines/BENCH_$*.json),--check-against bench/baselines/BENCH_$*.json)

bench-gates:
	$(MAKE) -k -j1 $(addprefix bench-,$(GATED))

# refresh a checked-in baseline after an intentional perf change (run on a
# quiet machine; steps are deterministic, times carry the slack)
bench-exact-baseline bench-dp-baseline: bench-%-baseline:
	dune exec bench/main.exe -- $* --out bench/baselines/BENCH_$*.json

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

# a base revision against this checkout on one phombench workload, the way
# the benchmark judges a change: PAIRS alternating runs at BENCHMARK.json's
# run_seconds, both sides' medians and quartiles, the change's wins and the
# verdict against each end-to-end bound; fails unless every run checks out
#   make phombench-pairs BASE=<rev> WORKLOAD=warm-serve [PAIRS=10]
PAIRS ?= 10
phombench-pairs:
	bash scripts/phombench_pairs.sh $(BASE) $(WORKLOAD) $(PAIRS)

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

# exactly the jobs .github/workflows/ci.yml runs, so a green `make ci`
# predicts a green pipeline (the fmt job may fail without failing CI, so its
# failure is ignored here too)
ci:
	dune build @all
	dune runtest
	-$(MAKE) fmt-check
	dune exec bench/main.exe -- micro
	$(MAKE) bench-gates
	sh scripts/serve_smoke.sh
	sh scripts/serve_smoke.sh --faults
	sh scripts/chaos_smoke.sh
	sh scripts/fleet_smoke.sh
	sh scripts/phombench_smoke.sh

clean:
	dune clean
