#!/usr/bin/env python3
"""Run-to-run spread of the host-speed benchmark.

Runs `python3 hostbench/run.py` once per seed on each workload and
reports, for every end-to-end metric, the median and the distance
between the first and third quartile as a share of the median (the
statistic BENCHMARK.json's bounds are judged against), flagging any
spread above a third of the metric's bound, and the share of CPU time
the host stole from the VM during the runs:

    python3 hostbench/spread.py --seeds 10 --workloads sweep-spec fuzz
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    steal = re.search(r"host_steal\s+([0-9.eE+-]+)", out.stderr)
    return json.loads(lines[-1]), float(steal.group(1)) if steal else 0.0


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = ap.parse_args()

    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        steals = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, steal = run_once(workload, seed, args.seconds)
            steals.append(steal)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- over bound/3"
            if spread > m["bound"]:
                ok = False
            print(f"{workload:11s} {m['name']:16s} median {med:12.6g} "
                  f"{m['unit']:5s} spread {spread:7.2%} "
                  f"(bound {m['bound']:.0%}){flag}", flush=True)
        print(f"{workload:11s} host steal: median {statistics.median(steals):.2f}% "
              f"max {max(steals):.2f}% of CPU time", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
