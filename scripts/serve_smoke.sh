#!/bin/sh
# Daemon smoke test: start phomd on a temp socket (durable, with a state
# dir), drive it with three client queries (one deliberately tripping its
# step budget), and assert a clean shutdown that unlinks the socket and
# leaves a snapshot. Also checks that an unusable state dir refuses to
# start. Exercises exactly what the CI daemon-smoke job runs;
# `make serve-smoke` is the local entry point.
#
# With --faults, a second soak runs against a daemon with an injected
# per-solve delay and a short idle deadline, while misbehaving peers (a
# silent holder, a solve-and-vanish client) share the socket with healthy
# retrying clients — every healthy query must still complete and the
# shutdown must stay clean.
set -eu

FAULTS=no
[ "${1:-}" = "--faults" ] && FAULTS=yes

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
PHOMD="$ROOT/_build/default/bin/phomd.exe"
PHOM="$ROOT/_build/default/bin/main.exe"

dune build bin/main.exe bin/phomd.exe

DIR=$(mktemp -d)
SOCK="$DIR/phomd.sock"
LOG="$DIR/phomd.log"
DAEMON_PID=""

cleanup() {
    # state dirs live under $DIR too, so one sweep removes socket, logs
    # and durable state alike
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

# an unusable state dir must refuse to start, not come up amnesiac: point
# --state-dir below a regular file (works even as root, where permission
# bits alone would not stop us)
: > "$DIR/not-a-dir"
set +e
BAD=$("$PHOMD" --socket "$DIR/bad.sock" --state-dir "$DIR/not-a-dir/state" 2>&1)
RC=$?
set -e
[ "$RC" -ne 0 ] || fail "daemon started despite an unusable state dir"
case "$BAD" in
*"state directory"*) ;;
*) fail "unusable state dir error is unhelpful: $BAD" ;;
esac
echo "serve-smoke: unusable state dir refused at startup"

"$PHOMD" --socket "$SOCK" --jobs 2 --state-dir "$DIR/state" > "$LOG" 2>&1 &
DAEMON_PID=$!

i=0
until grep -q listening "$LOG" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "daemon did not come up"
    sleep 0.1
done

echo "serve-smoke: daemon up on $SOCK"

"$PHOM" client "$SOCK" load graph pat "$ROOT/data/fig1_pattern.phg" \
    || fail "load pattern"
"$PHOM" client "$SOCK" load graph store "$ROOT/data/fig1_store.phg" \
    || fail "load data graph"

# query 1: cold solve, every artifact computed
"$PHOM" client "$SOCK" -- solve card pat store --sim shingles --xi 0.5 \
    || fail "cold solve"

# query 2: warm solve, must be answered from the artifact cache
WARM=$("$PHOM" client "$SOCK" -- solve card pat store --sim shingles --xi 0.5) \
    || fail "warm solve"
case "$WARM" in
*"cache=closure:hit,mat:hit,cands:hit"*) ;;
*) fail "warm solve was not served from the cache: $WARM" ;;
esac

# the stats reply is Prometheus text and must cover every instrumented
# layer: cache, catalog, daemon, pool, solver spans (the warm solve above
# ran through them) — one required series per family
STATS=$("$PHOM" client "$SOCK" stats) || fail "stats"
for metric in \
    phom_cache_hits_total \
    phom_cache_misses_total \
    phom_cache_evictions_total \
    phom_catalog_graphs \
    phom_daemon_requests_total \
    phom_daemon_connections_accepted_total \
    phom_pool_jobs_total \
    phom_solver_solves_total \
    phom_span_seconds_count \
    phom_build_info; do
    case "$STATS" in
    *"$metric"*) ;;
    *) fail "stats is missing the $metric series" ;;
    esac
done
echo "serve-smoke: stats covers cache/catalog/daemon/pool/solver families"

# query 3: a 2-step budget must trip into an anytime answer with exit code 2
set +e
TRIPPED=$("$PHOM" client "$SOCK" -- solve card11 pat store --sim shingles --steps 2)
RC=$?
set -e
[ "$RC" -eq 2 ] || fail "budget trip reported exit $RC, expected 2 ($TRIPPED)"
case "$TRIPPED" in
*"status=exhausted(steps)"*) ;;
*) fail "budget trip missing from reply: $TRIPPED" ;;
esac

"$PHOM" client "$SOCK" shutdown || fail "shutdown request"
wait "$DAEMON_PID" || fail "daemon exited non-zero"
DAEMON_PID=""
[ ! -e "$SOCK" ] || fail "socket not unlinked on shutdown"
[ -f "$DIR/state/state.snap" ] || fail "durable daemon left no snapshot behind"

echo "serve-smoke: OK (cold + warm + budget-tripped queries, clean shutdown)"

[ "$FAULTS" = yes ] || exit 0

# ---- fault soak: healthy clients vs misbehaving peers ----

SOCK="$DIR/phomd_faults.sock"
LOG="$DIR/phomd_faults.log"

"$PHOMD" --socket "$SOCK" --jobs 3 --idle-timeout 2 --fault-delay 0.3 \
    > "$LOG" 2>&1 &
DAEMON_PID=$!

i=0
until grep -q listening "$LOG" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "faulty daemon did not come up"
    sleep 0.1
done

echo "serve-smoke: fault soak on $SOCK (0.3s injected solve delay)"

"$PHOM" client --retries 5 "$SOCK" load graph pat "$ROOT/data/fig1_pattern.phg" \
    || fail "faults: load pattern"
"$PHOM" client --retries 5 "$SOCK" load graph store "$ROOT/data/fig1_store.phg" \
    || fail "faults: load data graph"

# misbehavers: a peer that connects and goes silent (evicted at its idle
# deadline) and one that starts a solve and vanishes without reading
"$PHOM" client --hold 4 "$SOCK" &
HOLD_PID=$!
"$PHOM" client --no-read "$SOCK" -- solve card pat store --sim equality --hops 2 --xi 0.9 \
    || fail "faults: no-read solve post"

# four healthy retrying clients run concurrently through the injected
# delay; each must come back with a complete answer
pids=""
for n in 1 2 3 4; do
    (
        OUT=$("$PHOM" client --retries 8 --retry-delay 0.1 "$SOCK" -- \
            solve card pat store --sim shingles --xi 0.5) || exit 1
        case "$OUT" in
        *"status=complete"*) exit 0 ;;
        *) echo "serve-smoke: healthy client $n got: $OUT" >&2; exit 1 ;;
        esac
    ) &
    pids="$pids $!"
done
for p in $pids; do
    wait "$p" || fail "faults: a healthy solve failed under the soak"
done

wait "$HOLD_PID" || fail "faults: hold client exited non-zero"

STATS=$("$PHOM" client --retries 5 "$SOCK" stats) || fail "faults: stats"
case "$STATS" in
*"phom_daemon_connections_evicted_total 1"*) ;;
*) fail "faults: silent peer was not evicted: $STATS" ;;
esac

"$PHOM" client --retries 5 "$SOCK" shutdown || fail "faults: shutdown request"
wait "$DAEMON_PID" || fail "faults: daemon exited non-zero"
DAEMON_PID=""
[ ! -e "$SOCK" ] || fail "faults: socket not unlinked on shutdown"

echo "serve-smoke: OK (fault soak: 4 healthy solves beat a holder and a vanisher, clean shutdown)"
