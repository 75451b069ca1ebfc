#!/bin/sh
# xloopsd waits, not spins, when accept runs out of fds; registered with
# ctest as xloopsd_fd_limit. The daemon runs under `ulimit -n 64` while
# 70 idle clients connect and hold their connections for 2 s, so accept
# fails with EMFILE for the ones left in the backlog. The daemon must use
# under 0.5 s of CPU over that window, and SIGTERM must still drain it
# (exit 0).
#
# usage: xloopsd_fd_limit.sh <xloopsd> <xloopsc> <python3>
set -u

XLOOPSD=$1
XLOOPSC=$2
PYTHON=$3

WORK=$(mktemp -d) || exit 1
SOCK="$WORK/xloopsd.sock"
DAEMON_PID=""

fail()
{
    echo "xloopsd_fd_limit: FAIL: $1" >&2
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

# Hold 70 idle connections for 2 s and report the daemon's CPU seconds
# (user + system, from /proc) over that window.
cpu=$("$PYTHON" - "$SOCK" "$DAEMON_PID" <<'EOF'
import os, socket, sys, time

sock_path, pid = sys.argv[1], sys.argv[2]
tick = os.sysconf("SC_CLK_TCK")

def cpu_s():
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / tick

start = cpu_s()
held = []
for _ in range(70):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sock_path)
    held.append(s)
time.sleep(2)
print(f"{cpu_s() - start:.2f}")
for s in held:
    s.close()
EOF
) || fail "could not hold 70 connections"
echo "xloopsd_fd_limit: daemon CPU over 2 s with 70 idle clients: ${cpu} s"
"$PYTHON" -c "import sys; sys.exit(0 if float(sys.argv[1]) < 0.5 else 1)" \
    "$cpu" || fail "daemon used ${cpu} s of CPU, want < 0.5 s"

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
code=$?
DAEMON_PID=""
[ "$code" -eq 0 ] || fail "daemon exited $code after SIGTERM, want 0"

rm -rf "$WORK"
echo "xloopsd_fd_limit: PASS"
