#!/usr/bin/env python3
"""Host-speed benchmark of the XLOOPS simulator.

Builds the simulator library, xloopsd and the hostbench binary from
this checkout's sources (Release, under .bench_build/), then runs one
workload and leaves the binary's result object as the last line of
stdout:

    python3 hostbench/run.py --workload sweep-spec --seed 1 \
        --seconds 15 --trace 0

Workloads: sweep-spec, sweep-trad, fuzz, service (see README.md).
--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and half through the traced replica, prints the per-layer
metrics and keeps the spans as Chrome trace JSON under .bench_run/.
Build output and diagnostics go to stderr. Exit status is 0 when a
result was printed, nonzero otherwise.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-spec", "sweep-trad", "fuzz", "service")
# Under the 180 s a run may take; the first run of a checkout also builds.
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; returns the tree."""
    for need in ("src/CMakeLists.txt", "tools/xloopsd.cc",
                 "bench/BENCH_table2.json"):
        if not (ROOT / need).is_file():
            die(f"{need} is missing: run from a full source checkout")
    tree = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tree = tree / "hostbench"
    tmp = tree / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (tree / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            die("build failed: " + " ".join(cmd))
    return tree


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    tree = build()
    # Relative to the checkout root, so the daemon's socket path stays
    # short whatever the checkout's own path is.
    run_dir = Path(".bench_run") / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    cmd = [str(tree / "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--run-dir", str(run_dir),
           "--xloopsd", str(tree / "xloopsd"),
           "--reference", str(HERE / "reference" / "digests.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"timed out after {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    # Keep only the traced run's spans; journals and sockets go.
    for child in (ROOT / run_dir).glob("*"):
        if child.is_dir():
            shutil.rmtree(child, ignore_errors=True)
    if not any((ROOT / run_dir).glob("*")):
        shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
