#!/bin/sh
# End-to-end smoke test of the xloopsd service stack, registered with
# ctest as service_smoke. Exercises the full client→daemon→supervisor
# path the unit tests cover only in-process:
#
#   1. daemon comes up and answers --ping
#   2. cold submit runs a job; warm resubmit is served from the result
#      cache and the two --stats-out files are byte-identical; a
#      fault-seeded job's stats are byte-identical to xsim's for the
#      same flags (one RunSpec spelling, one inject-rate default)
#   3. the telemetry surface: `xloopsc health` is healthy (exit 0),
#      `xloopsc metrics` returns a valid xloops-metrics-1 snapshot
#      whose conservation invariant check_metrics.py confirms (when
#      python3 is available), and the Prometheus exposition carries
#      the job-accounting family
#   4. a guaranteed-divergence job fails, its capsule downloads via
#      --capsule-out, embeds the flight-recorder dump, and
#      check_capsule.py validates it (when python3 is available)
#   5. SIGTERM drains gracefully: exit 0, cache index persisted,
#      metrics log and flight dump written
#
# usage: service_smoke.sh <xloopsd> <xloopsc> <xsim> \
#            <check_capsule.py|-> [check_metrics.py|-]
set -u

XLOOPSD=$1
XLOOPSC=$2
XSIM=$3
CHECK_CAPSULE=$4
CHECK_METRICS=${5:--}

WORK=$(mktemp -d) || exit 1
SOCK="$WORK/xloopsd.sock"
DAEMON_PID=""

fail()
{
    echo "service_smoke: FAIL: $1" >&2
    [ -n "$DAEMON_PID" ] && kill -KILL "$DAEMON_PID" 2>/dev/null
    rm -rf "$WORK"
    exit 1
}

"$XLOOPSD" --socket "$SOCK" --workers 2 --artifact-dir "$WORK" \
    --cache-index "$WORK/cache.json" \
    --metrics-log "$WORK/metrics.ndjson" --metrics-interval-ms 200 \
    --flight-dump "$WORK/flight.json" &
DAEMON_PID=$!

# Wait for the daemon to come up (ping retries, ~5s budget).
tries=0
until "$XLOOPSC" --socket "$SOCK" --ping >/dev/null 2>&1; do
    tries=$((tries + 1))
    [ "$tries" -ge 50 ] && fail "daemon never answered ping"
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on startup"
    sleep 0.1
done
echo "service_smoke: ping ok"

# Cold submit, then warm resubmit of the identical spec: the second
# must be a cache hit with a byte-identical stats document.
"$XLOOPSC" --socket "$SOCK" -k rgb2cmyk-uc -c io+x -m S \
    --stats-out "$WORK/cold.json" > "$WORK/cold.out" \
    || fail "cold submit exited $?"
warm_out=$("$XLOOPSC" --socket "$SOCK" -k rgb2cmyk-uc -c io+x -m S \
    --stats-out "$WORK/warm.json") || fail "warm submit exited $?"
case "$warm_out" in
*cached*) ;;
*) fail "warm submit was not a cache hit: $warm_out" ;;
esac
cmp -s "$WORK/cold.json" "$WORK/warm.json" \
    || fail "cached stats are not byte-identical"
echo "service_smoke: warm hit byte-identical"

# The same flags name the same run through the daemon and through
# xsim: a seed without a rate injects at the shared default in both.
"$XLOOPSC" --socket "$SOCK" -k dynprog-om -m S --inject-seed 7 \
    --stats-out "$WORK/svc-seeded.json" > /dev/null \
    || fail "seeded submit exited $?"
"$XSIM" -k dynprog-om -m S --inject-seed 7 \
    --stats-json "$WORK/xsim-seeded.json" > /dev/null \
    || fail "seeded xsim run exited $?"
cmp -s "$WORK/svc-seeded.json" "$WORK/xsim-seeded.json" \
    || fail "xloopsc and xsim stats differ for identical flags"
echo "service_smoke: xloopsc and xsim agree on a seeded run"

# The health surface: an idle daemon is healthy (exit 0).
health_out=$("$XLOOPSC" --socket "$SOCK" health) \
    || fail "health probe exited $?"
case "$health_out" in
healthy*) ;;
*) fail "health reported: $health_out" ;;
esac

# The metrics surface: a JSON snapshot that validates (including the
# jobs_admitted == completed + failed + shed + cancelled + in_flight
# conservation invariant), plus the Prometheus text exposition.
"$XLOOPSC" --socket "$SOCK" metrics --metrics-out "$WORK/metrics.json" \
    >/dev/null || fail "metrics scrape exited $?"
[ -s "$WORK/metrics.json" ] || fail "empty metrics snapshot"
if [ "$CHECK_METRICS" != "-" ]; then
    python3 "$CHECK_METRICS" --require-jobs "$WORK/metrics.json" \
        || fail "metrics snapshot failed validation"
fi
"$XLOOPSC" --socket "$SOCK" metrics --prom \
    | grep -q "xloops_jobs_admitted_total" \
    || fail "prom exposition lacks the job-accounting family"
echo "service_smoke: metrics and health surfaces ok"

# A guaranteed divergence: lockstep with certain architectural
# corruption. Must fail (exit 2) and hand back a valid capsule.
"$XLOOPSC" --socket "$SOCK" -k kmeans-or -c io+x -m S --lockstep \
    --inject-seed 1 --inject-rate 0 --inject-arch-rate 1 \
    --capsule-out "$WORK/capsule.json" > "$WORK/diverge.out" 2>&1
code=$?
[ "$code" -eq 2 ] || fail "divergence job exited $code, want 2"
[ -s "$WORK/capsule.json" ] || fail "no capsule downloaded"
grep -q '"flight"' "$WORK/capsule.json" \
    || fail "capsule does not embed the flight-recorder dump"
if [ "$CHECK_CAPSULE" != "-" ]; then
    python3 "$CHECK_CAPSULE" "$WORK/capsule.json" \
        || fail "capsule failed validation"
fi
echo "service_smoke: divergence capsuled (with flight dump)"

# Graceful drain: SIGTERM must finish cleanly (exit 0) and persist
# the cache index.
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
code=$?
DAEMON_PID=""
[ "$code" -eq 0 ] || fail "daemon exited $code on SIGTERM, want 0"
[ -s "$WORK/cache.json" ] || fail "cache index not persisted"
[ -s "$WORK/flight.json" ] || fail "flight dump not written on drain"
grep -q '"xloops-flight-1"' "$WORK/flight.json" \
    || fail "flight dump has the wrong schema"
[ -s "$WORK/metrics.ndjson" ] || fail "metrics log not written"
if [ "$CHECK_METRICS" != "-" ]; then
    python3 "$CHECK_METRICS" "$WORK/metrics.ndjson" \
        || fail "metrics log failed validation"
fi
echo "service_smoke: drained cleanly, cache + telemetry persisted"

rm -rf "$WORK"
echo "service_smoke: PASS"
