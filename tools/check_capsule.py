#!/usr/bin/env python3
"""Validate xsim divergence/replay capsules.

Checks that a capsule written by `xsim --capsule` (or the capsule
tests) matches the xloops-capsule-1 schema: run identity, fault spec,
error payload (with the divergence first-mismatch record when the
error is a lockstep divergence), the embedded program image and
initial memory, and the embedded xloops-ckpt-1 checkpoint's
consistency with the capsule's own program hash. Both memory images
(initial_mem and the checkpoint's mem) are checked byte for byte: one
entry per 64 KiB unit keyed 0x0-0xffff, trimmed at a nonzero last
byte, and a digest equal to the XOR of mix64((addr << 8) | byte) over
every nonzero byte (src/mem/memory.h). Used by CI and the
cli_check_capsule ctests; exits non-zero with a message on the first
violation.
"""

import argparse
import json
import re
import sys

DIVERGENCE_SITES = ("xloop-entry", "xloop-exit", "control",
                    "post-inst", "halt")

# SimError exit-code taxonomy (see src/common/sim_error.h): capsules
# are only written for SimErrors, so 3 (recoverable diagnosis),
# 5 (lockstep divergence), or 6 (interrupted by SIGINT/SIGTERM or a
# service-level cancel).
CAPSULE_EXIT_CODES = (3, 5, 6)


def fail(msg):
    print(f"check_capsule: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(doc, keys, ctx):
    for key in keys:
        if key not in doc:
            fail(f"{ctx}: missing key '{key}'")


def check_hex(value, ctx):
    if not isinstance(value, str) or not value.startswith("0x"):
        fail(f"{ctx}: expected a '0x...' string, got {value!r}")
    try:
        int(value, 16)
    except ValueError:
        fail(f"{ctx}: not a hex literal: {value!r}")


MASK64 = (1 << 64) - 1
UNIT_BYTES = 1 << 16  # checkpoint memory wire unit


def mix64(x):
    """splitmix64 finalizer, as src/common/rng.h."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def check_mem_image(mem, ctx):
    """Keys, trimmed hex values and the content digest of a memory
    image ({"digest": .., "pages": {unit key: hex}})."""
    require(mem, ("digest", "pages"), ctx)
    check_hex(mem["digest"], f"{ctx}.digest")
    digest = 0
    for key, blob in mem["pages"].items():
        where = f"{ctx}.pages[{key!r}]"
        check_hex(key, f"{ctx}.pages key")
        unit = int(key, 16)
        if unit > 0xFFFF:
            fail(f"{where}: key outside the 32-bit address space")
        if (not isinstance(blob, str) or len(blob) % 2
                or len(blob) > 2 * UNIT_BYTES
                or not re.fullmatch("[0-9a-fA-F]*", blob)):
            fail(f"{where}: not an even-length hex string of at most "
                 f"{2 * UNIT_BYTES} characters")
        data = bytes.fromhex(blob)
        if not data or data[-1] == 0:
            fail(f"{where}: not trimmed at a nonzero last byte")
        base = unit << 16
        for off, byte in enumerate(data):
            if byte:
                digest ^= mix64(((base + off) << 8) | byte)
    if digest != int(mem["digest"], 16):
        fail(f"{ctx}.digest {mem['digest']} does not match its pages "
             f"(0x{digest:016x})")


def check_divergence(div, ctx):
    require(div, ("site", "pc", "inst_index", "iteration",
                  "reg_mismatch", "reg", "main_value", "shadow_value",
                  "mem_mismatch", "mem_addr", "main_byte",
                  "shadow_byte"), ctx)
    if div["site"] not in DIVERGENCE_SITES:
        fail(f"{ctx}: unknown site {div['site']!r}")
    check_hex(div["pc"], f"{ctx}.pc")
    check_hex(div["mem_addr"], f"{ctx}.mem_addr")
    if not (div["reg_mismatch"] or div["mem_mismatch"]):
        fail(f"{ctx}: records neither a register nor a memory mismatch")
    if div["reg_mismatch"]:
        if not 1 <= div["reg"] <= 31:
            fail(f"{ctx}: r{div['reg']} is not a divergeable register")
        if div["main_value"] == div["shadow_value"]:
            fail(f"{ctx}: register mismatch with equal values")


def check_error(err):
    require(err, ("kind", "exit_code", "message", "inst_count"), "error")
    if err["exit_code"] not in CAPSULE_EXIT_CODES:
        fail(f"error.exit_code {err['exit_code']} is not a SimError code")
    if (err["kind"] == "divergence") != ("divergence" in err):
        fail("error.kind and the divergence payload disagree")
    if err["exit_code"] == 5 and err["kind"] != "divergence":
        fail(f"exit code 5 with kind {err['kind']!r}")
    if "divergence" in err:
        check_divergence(err["divergence"], "error.divergence")


def check_capsule(path):
    with open(path) as f:
        doc = json.load(f)

    if doc.get("schema") != "xloops-capsule-1":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    require(doc, ("config", "mode", "workload", "max_insts", "lockstep",
                  "faults", "error", "program_hash", "program",
                  "initial_mem", "checkpoint_inst"), path)
    if doc["mode"] not in ("T", "S", "A"):
        fail(f"{path}: unknown execution mode {doc['mode']!r}")

    require(doc["faults"], ("seed", "rate_bits", "arch_rate_bits",
                            "have_watchdog", "watchdog_cycles"), "faults")
    check_hex(doc["faults"]["rate_bits"], "faults.rate_bits")
    check_hex(doc["faults"]["arch_rate_bits"], "faults.arch_rate_bits")

    check_error(doc["error"])

    check_hex(doc["program_hash"], "program_hash")
    prog = doc["program"]
    require(prog, ("text_base", "entry", "text", "data", "symbols"),
            "program")
    text = prog["text"]
    if not isinstance(text, str) or not text:
        fail("program.text is empty")
    if len(text) % 8 != 0:
        fail("program.text is not whole 32-bit words")
    try:
        int(text, 16)
    except ValueError:
        fail("program.text is not a hex string")

    check_mem_image(doc["initial_mem"], "initial_mem")
    if not doc["initial_mem"]["pages"]:
        fail("initial_mem has no pages (no program image?)")

    if "checkpoint" in doc:
        ckpt = doc["checkpoint"]
        if ckpt.get("schema") != "xloops-ckpt-1":
            fail(f"embedded checkpoint schema is {ckpt.get('schema')!r}")
        require(ckpt, ("config", "mode", "program_hash", "inst_count",
                       "pc", "regs", "mem"), "checkpoint")
        for key in ("config", "mode", "program_hash"):
            if ckpt[key] != doc[key]:
                fail(f"checkpoint.{key} ({ckpt[key]!r}) does not match "
                     f"the capsule's ({doc[key]!r})")
        if ckpt["inst_count"] != doc["checkpoint_inst"]:
            fail("checkpoint.inst_count does not match checkpoint_inst")
        check_mem_image(ckpt["mem"], "checkpoint.mem")
        # A diagnosis/divergence capsule embeds the nearest checkpoint
        # *strictly prior* to the failure so replay can run into it. A
        # cooperative stop (interrupted/deadline/cancelled) instead
        # embeds the final checkpoint taken at the exact stop
        # instruction — the resume point — so equality is correct.
        if doc["error"]["kind"] in ("interrupted", "deadline",
                                    "cancelled"):
            if ckpt["inst_count"] > doc["error"]["inst_count"]:
                fail("embedded checkpoint is past the stop point")
        elif ckpt["inst_count"] >= doc["error"]["inst_count"]:
            fail("embedded checkpoint is not prior to the failure")
    elif doc["checkpoint_inst"] != 0:
        fail("checkpoint_inst set but no checkpoint embedded")

    div = " (divergence)" if "divergence" in doc["error"] else ""
    print(f"check_capsule: {path}: {doc['workload']} on {doc['config']}"
          f" mode {doc['mode']}, {doc['error']['kind']} after "
          f"{doc['error']['inst_count']} insts{div} OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("capsule", help="capsule JSON from xsim --capsule")
    args = ap.parse_args()
    check_capsule(args.capsule)


if __name__ == "__main__":
    main()
