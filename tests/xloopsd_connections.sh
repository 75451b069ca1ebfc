#!/bin/sh
# xloopsd holds an fd and a thread for live connections only, registered
# with ctest as xloopsd_connections. The daemon runs under `ulimit -n 64`
# and serves 300 sequential one-request clients (the way xloopsc and the
# bench harnesses connect), which is more connections than it has fds:
# each must be answered, and the daemon must then drain cleanly (exit 0).
#
# usage: xloopsd_connections.sh <xloopsd> <xloopsc>
set -u

XLOOPSD=$1
XLOOPSC=$2

WORK=$(mktemp -d) || exit 1
SOCK="$WORK/xloopsd.sock"
DAEMON_PID=""

fail()
{
    echo "xloopsd_connections: FAIL: $1" >&2
    [ -n "$DAEMON_PID" ] && kill -KILL "$DAEMON_PID" 2>/dev/null
    rm -rf "$WORK"
    exit 1
}

# Only the daemon runs under the low fd limit (exec keeps the pid).
(ulimit -n 64 && exec "$XLOOPSD" --socket "$SOCK" --workers 1 \
    --artifact-dir "$WORK") &
DAEMON_PID=$!

tries=0
until "$XLOOPSC" --socket "$SOCK" --ping >/dev/null 2>&1; do
    tries=$((tries + 1))
    [ "$tries" -ge 50 ] && fail "daemon never answered ping"
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on startup"
    sleep 0.1
done

# A daemon out of fds leaves the connection in its backlog unanswered;
# the timeout turns that hang into a failure.
i=0
while [ "$i" -lt 300 ]; do
    i=$((i + 1))
    out=$(timeout 10 "$XLOOPSC" --socket "$SOCK" --ping 2>&1) \
        || fail "ping $i: $out"
    [ "$out" = "ok" ] || fail "ping $i answered: $out"
done
echo "xloopsd_connections: 300 sequential pings ok"

"$XLOOPSC" --socket "$SOCK" --drain >/dev/null || fail "drain request failed"
wait "$DAEMON_PID"
code=$?
DAEMON_PID=""
[ "$code" -eq 0 ] || fail "daemon exited $code after drain, want 0"

rm -rf "$WORK"
echo "xloopsd_connections: PASS"
