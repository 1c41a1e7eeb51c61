#!/bin/sh
# crash_smoke.sh — end-to-end crash-recovery smoke for the durable
# session journal (schedd -data-dir, internal/journal).
#
# Builds cmd/schedd, cmd/schedload, and cmd/schedjournal, starts one
# journaled schedd, drives many concurrent streaming sessions with
# reconnecting SSE subscribers, SIGKILLs the daemon mid-run, dumps the
# journal state as a baseline, restarts the daemon over the same data
# directory, and asserts the durability contract:
#
#   1. the restarted schedd recovers the in-flight sessions from their
#      write-ahead logs (schedd_sessions_recovered_total >= 1, zero
#      recovery failures);
#   2. the committed prefix survives the crash verbatim: `schedjournal
#      verify` proves every baseline session's committed segments,
#      counters, and task table are a prefix of the recovered state.
#      The load generator is paused (SIGSTOP) from just before the kill
#      until verify has run, so no session can finish and have its log
#      collected before it is checked, and verify must check at least
#      one session;
#   3. every session completes: the load generator rides out the outage
#      on its retry budget and reconnecting SSE streams;
#   4. zero client-side validator failures on the final schedules;
#   5. zero SSE sequence gaps: recovered streams replay the journaled
#      event ring and the client dedupes by id, so at-least-once
#      delivery still reads as exactly-once.
#
# Env knobs: CRASH_SESSIONS (default 25), CRASH_BATCHES (12),
# CRASH_RATE (1.0), CRASH_SEED (42), CRASH_PORT (18500),
# CRASH_FSYNC (interval), CRASH_BUILDFLAGS (e.g. -race), GO (go).
set -eu

GO="${GO:-go}"
SESSIONS="${CRASH_SESSIONS:-25}"
BATCHES="${CRASH_BATCHES:-12}"
RATE="${CRASH_RATE:-1.0}"
SEED="${CRASH_SEED:-42}"
PORT="${CRASH_PORT:-18500}"
FSYNC="${CRASH_FSYNC:-interval}"
BUILDFLAGS="${CRASH_BUILDFLAGS:-}"

workdir="$(mktemp -d)"
datadir="$workdir/data"
schedd_pid=""
load_pid=""
cleanup() {
    for pid in "$load_pid" "$schedd_pid"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "crash-smoke: building (flags: ${BUILDFLAGS:-none})"
# shellcheck disable=SC2086
$GO build $BUILDFLAGS -o "$workdir/schedd" ./cmd/schedd
# shellcheck disable=SC2086
$GO build $BUILDFLAGS -o "$workdir/schedload" ./cmd/schedload
# shellcheck disable=SC2086
$GO build $BUILDFLAGS -o "$workdir/schedjournal" ./cmd/schedjournal

base="http://127.0.0.1:$PORT"
start_schedd() {
    "$workdir/schedd" -addr "127.0.0.1:$PORT" \
        -data-dir "$datadir" -fsync "$FSYNC" -quiet 2>>"$workdir/schedd.log" &
    schedd_pid=$!
    i=0
    until curl -fsS "$base/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "crash-smoke: FAIL: schedd never became healthy" >&2
            cat "$workdir/schedd.log" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "crash-smoke: starting journaled schedd on :$PORT (fsync=$FSYNC)"
start_schedd

echo "crash-smoke: driving $SESSIONS streaming sessions with reconnecting subscribers"
"$workdir/schedload" -addr "$base" -stream -reconnect \
    -sessions "$SESSIONS" -batches "$BATCHES" -rate "$RATE" \
    -seed "$SEED" -retries 30 \
    >"$workdir/stream.out" 2>"$workdir/stream.err" &
load_pid=$!

# SIGKILL the daemon as soon as every session is established: each
# session still has most of its arrival trace ahead of it, so recovery
# has real in-flight state to restore. A fixed sleep would race the run
# length, which varies widely with build flags.
i=0
while :; do
    opened="$(curl -fsS "$base/metrics" 2>/dev/null \
        | awk '/^schedd_sessions_opened_total /{print $2}')"
    [ "${opened:-0}" -ge "$SESSIONS" ] && break
    if ! kill -0 "$load_pid" 2>/dev/null; then
        echo "crash-smoke: FAIL: load generator exited before the kill (run too short?)" >&2
        cat "$workdir/stream.out" "$workdir/stream.err" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "crash-smoke: FAIL: sessions never all got created" >&2
        cat "$workdir/stream.out" "$workdir/stream.err" "$workdir/schedd.log" >&2
        exit 1
    fi
    sleep 0.05
done
echo "crash-smoke: pausing schedload, SIGKILLing schedd mid-run ($opened sessions opened)"
kill -STOP "$load_pid"
kill -9 "$schedd_pid"
schedd_pid=""

echo "crash-smoke: dumping the post-crash journal baseline"
"$workdir/schedjournal" dump -data-dir "$datadir" -o "$workdir/baseline.json"
baseline_sessions="$(grep -c '"id":' "$workdir/baseline.json" || true)"
if [ "${baseline_sessions:-0}" -lt 1 ]; then
    echo "crash-smoke: FAIL: empty journal baseline — nothing was durable at kill time" >&2
    cat "$workdir/baseline.json" >&2
    exit 1
fi

echo "crash-smoke: restarting schedd over the same data dir"
start_schedd

recovered="$(curl -fsS "$base/metrics" | awk '/^schedd_sessions_recovered_total /{print $2}')"
failed="$(curl -fsS "$base/metrics" | awk '/^schedd_sessions_recovery_failed_total /{print $2}')"
if [ "${recovered:-0}" -lt 1 ]; then
    echo "crash-smoke: FAIL: no sessions recovered — the kill proved nothing" >&2
    cat "$workdir/schedd.log" >&2
    exit 1
fi
if [ "${failed:-0}" -ne 0 ]; then
    echo "crash-smoke: FAIL: $failed sessions failed recovery" >&2
    cat "$workdir/schedd.log" >&2
    exit 1
fi
echo "crash-smoke: recovered $recovered sessions, 0 failures"

echo "crash-smoke: verifying the committed prefix survived verbatim"
if ! "$workdir/schedjournal" verify -data-dir "$datadir" \
        -baseline "$workdir/baseline.json" >"$workdir/verify.out"; then
    echo "crash-smoke: FAIL: journal verify found regressed sessions" >&2
    cat "$workdir/verify.out" >&2
    exit 1
fi
tail -1 "$workdir/verify.out"
verified="$(awk '/^verify: /{print $2}' "$workdir/verify.out")"
if [ "${verified:-0}" -lt 1 ]; then
    echo "crash-smoke: FAIL: journal verify checked no session" >&2
    cat "$workdir/verify.out" >&2
    exit 1
fi

echo "crash-smoke: resuming schedload"
kill -CONT "$load_pid"

if ! wait "$load_pid"; then
    echo "crash-smoke: FAIL: schedload exited nonzero" >&2
    cat "$workdir/stream.out" "$workdir/stream.err" >&2
    cat "$workdir/schedd.log" >&2
    exit 1
fi
load_pid=""
cat "$workdir/stream.out"

if ! kill -0 "$schedd_pid" 2>/dev/null; then
    echo "crash-smoke: FAIL: restarted schedd crashed during the run" >&2
    cat "$workdir/schedd.log" >&2
    exit 1
fi

if ! grep -q "sessions:   $SESSIONS ok / $SESSIONS total" "$workdir/stream.out"; then
    echo "crash-smoke: FAIL: not every session completed across the crash" >&2
    exit 1
fi
if ! grep -q "validator:  0 failures" "$workdir/stream.out"; then
    echo "crash-smoke: FAIL: validator failures in final schedules" >&2
    exit 1
fi
if ! grep -qE "^events: +[0-9]+ received, 0 seq gaps, 0 sessions without final event, 0 streams closed uncleanly, 0 duplicate final events$" "$workdir/stream.out"; then
    echo "crash-smoke: FAIL: SSE stream oracle broken (seq gaps, missing, duplicate or unclean finals)" >&2
    exit 1
fi

echo "crash-smoke: draining the restarted schedd"
kill -TERM "$schedd_pid"
i=0
while kill -0 "$schedd_pid" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "crash-smoke: FAIL: schedd did not exit after SIGTERM" >&2
        exit 1
    fi
    sleep 0.1
done
schedd_pid=""

echo "crash-smoke: PASS — SIGKILL mid-run, $recovered sessions recovered, committed prefixes intact, all $SESSIONS sessions finished, 0 validator failures, 0 seq gaps"
