#!/bin/sh
# SIGINT stops an xsim run cooperatively: exit 6, one final checkpoint
# <prefix>-<inst>.json taken at the stop instruction (with
# --checkpoint-prefix and no --checkpoint-every the stop is the only
# checkpoint), and the default interrupt capsule
# xsim-interrupt.capsule.json in the working directory. Registered
# with ctest as cli_xsim_interrupt.
#
# usage: xsim_interrupt.sh <xsim> <spin.s>
set -u

XSIM=$1
SPIN=$2

WORK=$(mktemp -d) || exit 1

fail()
{
    echo "xsim_interrupt: FAIL: $1" >&2
    rm -rf "$WORK"
    exit 1
}

cd "$WORK" || fail "cannot enter $WORK"
"$XSIM" "$SPIN" -c io -m T --checkpoint-prefix "$WORK/stop" &
pid=$!
sleep 1
kill -INT "$pid"
wait "$pid"
code=$?

[ "$code" -eq 6 ] || fail "exit $code, want 6"
set -- "$WORK"/stop-*.json
[ "$#" -eq 1 ] && [ -s "$1" ] || fail "want one stop-<inst>.json, got: $*"
[ -s xsim-interrupt.capsule.json ] \
    || fail "no xsim-interrupt.capsule.json written"
rm -rf "$WORK"
echo "xsim_interrupt: PASS"
