#!/usr/bin/env python3
"""Self-test of the host-speed benchmark.

Runs every workload for one second, untraced and traced, and checks
the result line against BENCHMARK.json: the exact keys, every metric
named and with its unit, names matching [A-Za-z0-9_.-]+, no failed
operation, end-to-end metrics never 0, each per-layer metric nonzero
on the workloads whose layer runs, and the Chrome trace written. Then
runs the service workload past the end of a one-seed S miss pool, and
checks that a directory holding only BENCHMARK.json and hostbench/
fails without printing a result.

    python3 hostbench/selftest.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

SWEEP = ["system.build_us", "system.report_us", "system.report_bytes",
         "asm.assemble_us", "kernels.setup_us", "kernels.validate_us",
         "cpu.golden_ns_per_inst", "energy.model_us", "common.pool_util",
         "sim.gpp_insts", "sim.cycles", "sim.minst_per_s",
         "trace.uncovered_pct"]
# The per-layer metrics that must be nonzero where their layer runs.
LAYERS_RUN = {
    "sweep-spec": SWEEP + [
        f"system.run_ns_per_inst.{m}.{h}"
        for m in "SA" for h in ("io", "ooo2", "ooo4")] + [
        "system.run_ns_per_lpsu_cycle", "sim.lane_insts",
        "sim.lpsu_exec_cycles"],
    "sweep-trad": SWEEP + [
        f"system.run_ns_per_inst.T.{h}" for h in ("io", "ooo2", "ooo4")],
    "fuzz": [
        "system.lockstep_run_ns_per_inst.T",
        "system.lockstep_run_ns_per_inst.S", "system.build_us",
        "fuzz.generate_us", "frontend.parse_us", "frontend.analyze_us",
        "compiler.compile_us", "asm.assemble_us", "common.pool_util",
        "sim.gpp_insts",
        "sim.lane_insts", "sim.cycles", "sim.lpsu_exec_cycles",
        "sim.minst_per_s", "trace.uncovered_pct"],
    "service": [
        "service.queue_wait_us_p50", "service.sim_us_p50",
        "service.other_us_p50.hit", "service.other_us_p50.miss",
        "service.hit_latency_p50_ms", "service.miss_latency_p50_ms",
        "service.miss_latency_p99_ms", "service.cache_hit_ratio",
        "service.journal_bytes_per_job", "service.reply_bytes_per_job",
        "sim.gpp_insts", "sim.lane_insts", "sim.cycles",
        "sim.lpsu_exec_cycles", "sim.minst_per_s", "trace.uncovered_pct"],
}

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(cwd, workload, trace):
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(bench, workload, trace):
    out = run(ROOT, workload, trace)
    ctx = f"{workload} --trace {trace}"
    check(out.returncode == 0, f"{ctx}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        check(False, f"{ctx}: no result line")
        return
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{ctx}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{ctx}: not correct")
    check(result["failed"] == 0, f"{ctx}: failed_frac "
          f"{result['failed']}/{result['attempted']} is not 0")
    check(result["attempted"] >= 1, f"{ctx}: attempted < 1")
    want = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    check(sorted(got) == sorted(m["name"] for m in want),
          f"{ctx}: metric names differ from BENCHMARK.json")
    for m in want:
        name = m["name"]
        check(NAME.match(name) is not None, f"{ctx}: bad name {name!r}")
        if name not in got:
            continue
        check(got[name].get("unit") == m["unit"],
              f"{ctx}: {name} unit {got[name].get('unit')!r}")
        check(isinstance(got[name].get("value"), (int, float)),
              f"{ctx}: {name} has no numeric value")
        if not trace:
            check(got[name]["value"] > 0, f"{ctx}: {name} is 0")
    if trace:
        for name in LAYERS_RUN[workload]:
            check(got.get(name, {}).get("value", 0) > 0,
                  f"{ctx}: {name} is 0 though its layer runs")
        traces = list((ROOT / ".bench_run").glob(
            f"{workload}-s7-t1-*/trace-{workload}.json"))
        check(bool(traces), f"{ctx}: no Chrome trace written")
        for t in traces:
            events = json.loads(t.read_text())["traceEvents"]
            check(len(events) > 0 and all(
                {"name", "ph", "ts", "dur", "tid"} <= e.keys()
                for e in events), f"{ctx}: malformed trace {t}")
            shutil.rmtree(t.parent, ignore_errors=True)


def check_miss_pool_end():
    """A service run that uses up its S miss pool ends its timed phase
    early and still reports a correct result."""
    tree = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tree = tree / "hostbench"
    run_dir = ROOT / ".bench_run" / "pool-end"
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [str(tree / "hostbench"), "--workload", "service", "--seed", "7",
           "--seconds", "5", "--trace", "0", "--root", ".",
           "--run-dir", str(run_dir.relative_to(ROOT)),
           "--xloopsd", str(tree / "xloopsd"),
           "--reference", str(ROOT / "hostbench/reference/digests.json"),
           "--miss-seeds", "1"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=120)
    shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.stdout.strip().splitlines()
    check(out.returncode == 0 and bool(lines),
          f"miss pool end: exit {out.returncode}")
    if lines:
        result = json.loads(lines[-1])
        check(result["correct"] is True and result["failed"] == 0,
              f"miss pool end: {result['failed']} failed")


def check_bare_directory():
    """Only BENCHMARK.json and hostbench/: no sources, so no result."""
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "hostbench", bare / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(bare, "fuzz", 0)
    check(out.returncode != 0, "bare directory: exit status 0")
    check(out.stdout.strip() == "", "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_result(bench, w["name"], trace)
            print(f"checked {w['name']} --trace {trace}", flush=True)
    check_miss_pool_end()
    print("checked the end of the service miss pool", flush=True)
    check_bare_directory()
    print("selftest:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
