#!/usr/bin/env python3
"""Paired host-speed comparison of two checkouts.

Runs `python3 hostbench/run.py` in a parent checkout and a changed
checkout for N pairs per workload, alternating which side runs first,
and appends every result line to a JSON-lines file. A run that is not
`correct` or that has failed operations stops the comparison. Then, for
each workload and each end-to-end metric of BENCHMARK.json, it prints
each side's median [first quartile - third quartile], the change's wins
(judged by the metric's `better`), and whether a claimed gain would
hold: at least 10 pairs, wins in at least 9 of 10 of them, and a median
difference larger than the parent's interquartile range.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads fuzz --pairs 10 --seconds 20 --out pairs.jsonl
    python3 tools/bench_pairs.py --summarize pairs.jsonl

Exit status: 0 when the summary was printed, 1 on a refused run or an
unreadable input, 2 on bad arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10  # fewer pairs cannot support a claimed gain


def quartiles(values):
    """(first quartile, median, third quartile) of @p values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.exit(f"bench_pairs: {checkout}: {workload} seed {seed}: "
                 f"exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def check(record):
    """Refuse a run that is not correct or has failed operations."""
    result = record["result"]
    if not result.get("correct") or result.get("failed", 0):
        sys.exit(f"bench_pairs: refused {record['side']} run of "
                 f"{record['workload']} pair {record['pair']}: correct="
                 f"{result.get('correct')} failed={result.get('failed')}")


def summarize(records, bench):
    by_workload = {}
    for r in records:
        check(r)
        by_workload.setdefault(r["workload"], {}).setdefault(
            r["pair"], {})[r["side"]] = r["result"]
    for workload, pairs in by_workload.items():
        complete = [p for _, p in sorted(pairs.items())
                    if "parent" in p and "change" in p]
        print(f"{workload}: {len(complete)} pairs")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [p["parent"]["metrics"][name]["value"]
                      for p in complete]
            change = [p["change"]["metrics"][name]["value"]
                      for p in complete]
            if not complete:
                continue
            higher = metric["better"] == "higher"
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(parent, change))
            pq1, pmed, pq3 = quartiles(parent)
            cq1, cmed, cq3 = quartiles(change)
            gain = (cmed - pmed) if higher else (pmed - cmed)
            if len(complete) < MIN_PAIRS:
                claim = f"needs >= {MIN_PAIRS} pairs"
            elif wins >= 0.9 * len(complete) and gain > (pq3 - pq1):
                claim = "holds"
            else:
                claim = "does not hold"
            print(f"  {name:16s} parent {pmed:.5g} [{pq1:.5g}-{pq3:.5g}]"
                  f"  change {cmed:.5g} [{cq1:.5g}-{cq3:.5g}]"
                  f"  wins {wins}/{len(complete)}  claim {claim}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--summarize", metavar="FILE",
                    help="only summarize the result lines in FILE")
    ap.add_argument("--parent", type=Path, help="the parent checkout")
    ap.add_argument("--change", type=Path, help="the changed checkout")
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path, default=Path("bench_pairs.jsonl"))
    args = ap.parse_args()

    if args.summarize:
        try:
            with open(args.summarize) as f:
                records = [json.loads(line) for line in f if line.strip()]
        except (OSError, ValueError) as e:
            sys.exit(f"bench_pairs: {args.summarize}: {e}")
        summarize(records, bench)
        return
    if not args.parent or not args.change or args.pairs < 1:
        ap.error("--parent, --change and --pairs >= 1 are needed")

    records = []
    with open(args.out, "a") as out:
        for workload in args.workloads:
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                sides = [("parent", args.parent), ("change", args.change)]
                if pair % 2:
                    sides.reverse()
                for side, checkout in sides:
                    record = {"workload": workload, "pair": pair,
                              "seed": seed, "side": side,
                              "result": run_once(checkout, workload, seed,
                                                 args.seconds)}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    check(record)
                    records.append(record)
    summarize(records, bench)


if __name__ == "__main__":
    main()
