#!/bin/sh
# cluster_smoke.sh — end-to-end smoke for the schedrouter cluster tier.
#
# Builds cmd/schedd, cmd/schedrouter, and cmd/schedload, starts three
# schedd backends plus one router in front, drives many concurrent
# streaming sessions through the router (POST /v1/sessions + SSE event
# streams), and SIGKILLs one backend mid-run. Asserts the cluster
# contract:
#
#   1. the router never crashes, and neither do the surviving backends;
#   2. every session completes: sessions homed on the killed backend
#      migrate to a survivor via the dispatch snapshot/restore path;
#   3. zero client-side validator failures and zero missed deadlines on
#      the final realized schedules;
#   4. zero SSE sequence gaps: the router renumbers the fan-through
#      stream so migration is invisible in the event ids;
#   5. the migration actually happened (schedrouter_migrations_total
#      >= 1 in the router's /metrics).
#
# Env knobs: CLUSTER_SESSIONS (default 50), CLUSTER_BATCHES (10),
# CLUSTER_RATE (1.0), CLUSTER_SEED (42), CLUSTER_PORT (18400, router;
# backends use PORT+1..PORT+3), CLUSTER_BUILDFLAGS (e.g. -race), GO (go).
set -eu

GO="${GO:-go}"
SESSIONS="${CLUSTER_SESSIONS:-50}"
BATCHES="${CLUSTER_BATCHES:-10}"
RATE="${CLUSTER_RATE:-1.0}"
SEED="${CLUSTER_SEED:-42}"
PORT="${CLUSTER_PORT:-18400}"
BUILDFLAGS="${CLUSTER_BUILDFLAGS:-}"

workdir="$(mktemp -d)"
router_pid=""
b1_pid=""
b2_pid=""
b3_pid=""
load_pid=""
cleanup() {
    for pid in "$load_pid" "$router_pid" "$b1_pid" "$b2_pid" "$b3_pid"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "cluster-smoke: building (flags: ${BUILDFLAGS:-none})"
# shellcheck disable=SC2086
$GO build $BUILDFLAGS -o "$workdir/schedd" ./cmd/schedd
# shellcheck disable=SC2086
$GO build $BUILDFLAGS -o "$workdir/schedrouter" ./cmd/schedrouter
# shellcheck disable=SC2086
$GO build $BUILDFLAGS -o "$workdir/schedload" ./cmd/schedload

p1=$((PORT + 1)); p2=$((PORT + 2)); p3=$((PORT + 3))
echo "cluster-smoke: starting 3 schedd backends on :$p1 :$p2 :$p3"
"$workdir/schedd" -addr "127.0.0.1:$p1" -quiet 2>"$workdir/b1.log" &
b1_pid=$!
"$workdir/schedd" -addr "127.0.0.1:$p2" -quiet 2>"$workdir/b2.log" &
b2_pid=$!
"$workdir/schedd" -addr "127.0.0.1:$p3" -quiet 2>"$workdir/b3.log" &
b3_pid=$!

for p in "$p1" "$p2" "$p3"; do
    i=0
    until curl -fsS "http://127.0.0.1:$p/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "cluster-smoke: FAIL: backend :$p never became healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
done

echo "cluster-smoke: starting schedrouter on :$PORT"
"$workdir/schedrouter" -addr "127.0.0.1:$PORT" \
    -backends "http://127.0.0.1:$p1,http://127.0.0.1:$p2,http://127.0.0.1:$p3" \
    -health-interval 250ms -health-failures 2 \
    2>"$workdir/router.log" &
router_pid=$!

base="http://127.0.0.1:$PORT"
i=0
until curl -fsS "$base/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "cluster-smoke: FAIL: router never became ready" >&2
        cat "$workdir/router.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "cluster-smoke: driving $SESSIONS streaming sessions through the router"
"$workdir/schedload" -addr "$base" -stream -router \
    -sessions "$SESSIONS" -batches "$BATCHES" -rate "$RATE" \
    -seed "$SEED" >"$workdir/stream.out" 2>"$workdir/stream.err" &
load_pid=$!

# SIGKILL one backend as soon as every session is established (the
# router's created counter reaches the target): at that point each
# session still has nearly its whole arrival trace ahead of it, so the
# ~1/3 homed on the victim are guaranteed to need migration. A fixed
# sleep races the run length, which varies widely with build flags.
i=0
while :; do
    created="$(curl -fsS "$base/metrics" 2>/dev/null \
        | awk '/^schedrouter_sessions_created_total /{print $2}')"
    [ "${created:-0}" -ge "$SESSIONS" ] && break
    if ! kill -0 "$load_pid" 2>/dev/null; then
        echo "cluster-smoke: FAIL: load generator exited before the kill (run too short?)" >&2
        cat "$workdir/stream.out" "$workdir/stream.err" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "cluster-smoke: FAIL: sessions never all got created" >&2
        cat "$workdir/stream.out" "$workdir/stream.err" "$workdir/router.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "cluster-smoke: SIGKILLing backend :$p2 mid-run"
kill -9 "$b2_pid"
b2_pid=""

if ! wait "$load_pid"; then
    echo "cluster-smoke: FAIL: schedload exited nonzero" >&2
    cat "$workdir/stream.out" "$workdir/stream.err" >&2
    cat "$workdir/router.log" >&2
    exit 1
fi
load_pid=""
cat "$workdir/stream.out"

if ! kill -0 "$router_pid" 2>/dev/null; then
    echo "cluster-smoke: FAIL: router crashed during the run" >&2
    cat "$workdir/router.log" >&2
    exit 1
fi
for pid in "$b1_pid" "$b3_pid"; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "cluster-smoke: FAIL: a surviving backend crashed" >&2
        exit 1
    fi
done

if ! grep -q "sessions:   $SESSIONS ok / $SESSIONS total" "$workdir/stream.out"; then
    echo "cluster-smoke: FAIL: not every session completed" >&2
    exit 1
fi
if ! grep -q "validator:  0 failures" "$workdir/stream.out"; then
    echo "cluster-smoke: FAIL: validator failures in final schedules" >&2
    exit 1
fi
if ! grep -qE "^events: +[0-9]+ received, 0 seq gaps, 0 sessions without final event, 0 streams closed uncleanly, 0 duplicate final events$" "$workdir/stream.out"; then
    echo "cluster-smoke: FAIL: SSE stream oracle broken (seq gaps, missing, duplicate or unclean finals)" >&2
    exit 1
fi

metrics="$(curl -fsS "$base/metrics")"
if ! echo "$metrics" | grep -q 'schedrouter_migrations_total [1-9]'; then
    echo "cluster-smoke: FAIL: no migration recorded — the kill proved nothing" >&2
    echo "$metrics" | grep schedrouter_ >&2 || true
    exit 1
fi
if ! echo "$metrics" | grep -q 'schedrouter_backend_up{backend="127.0.0.1:'"$p2"'"} 0'; then
    echo "cluster-smoke: FAIL: killed backend still reported up" >&2
    exit 1
fi

echo "cluster-smoke: draining the router"
kill -TERM "$router_pid"
i=0
while kill -0 "$router_pid" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "cluster-smoke: FAIL: router did not exit after SIGTERM" >&2
        exit 1
    fi
    sleep 0.1
done
router_pid=""

echo "cluster-smoke: PASS — backend killed mid-run, all sessions finished, 0 validator failures, 0 seq gaps"
