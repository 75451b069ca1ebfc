#!/usr/bin/env python3
"""Validate xloops-stats-1 documents against the statistics catalogue.

The catalogue is the table in docs/STATS.md (the same rows as
XLOOPS_STAT_LIST in src/common/stats.h; test_stats keeps the two
equal). For each document written by `xsim --stats-json` this checks:

  * the `schema` string is xloops-stats-1
  * every `counters` key is a catalogue counter and every `histograms`
    key a catalogue histogram
  * the keys of both objects are in name order
  * every counter value is a non-negative integer, and so is every
    histogram's count, sum, min, max and bucket (its mean is a
    non-negative number)

Usage: check_stats.py [--catalogue docs/STATS.md] doc.json [doc.json ...]

Prints one line per valid document and exits 0; on the first failure
prints the document and the offending key and exits 1.
"""

import argparse
import json
import re
import sys
from pathlib import Path

SCHEMA = "xloops-stats-1"
ROW_RE = re.compile(r"^\| `([a-z0-9_]+)` \| (counter|histogram) \|")
HIST_INTS = ("count", "sum", "min", "max")


def fail(doc, msg):
    print(f"check_stats: FAIL: {doc}: {msg}", file=sys.stderr)
    sys.exit(1)


def load_catalogue(path):
    kinds = {}
    for line in Path(path).read_text().splitlines():
        m = ROW_RE.match(line)
        if m:
            kinds[m.group(1)] = m.group(2)
    if not kinds:
        print(f"check_stats: no catalogue rows in {path}", file=sys.stderr)
        sys.exit(2)
    return kinds


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_section(doc, data, section, kind, kinds, check_value):
    entries = data.get(section, {})
    if not isinstance(entries, dict):
        fail(doc, f"'{section}' is not an object")
    prev = None
    for key, value in entries.items():
        if kinds.get(key) != kind:
            fail(doc, f"unknown {kind} '{key}'")
        if prev is not None and key <= prev:
            fail(doc, f"{section} key '{key}' is out of name order")
        prev = key
        check_value(doc, key, value)
    return len(entries)


def check_counter(doc, key, value):
    if not is_count(value):
        fail(doc, f"counter '{key}' is not a non-negative integer")


def check_histogram(doc, key, value):
    if not isinstance(value, dict):
        fail(doc, f"histogram '{key}' is not an object")
    for field in HIST_INTS:
        if not is_count(value.get(field)):
            fail(doc, f"histogram '{key}' {field} is not a non-negative "
                      "integer")
    buckets = value.get("buckets")
    if not isinstance(buckets, list) or not all(map(is_count, buckets)):
        fail(doc, f"histogram '{key}' buckets are not non-negative "
                  "integers")
    mean = value.get("mean")
    if isinstance(mean, bool) or not isinstance(mean, (int, float)) \
            or mean < 0:
        fail(doc, f"histogram '{key}' mean is not a non-negative number")


def main():
    root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--catalogue", default=root / "docs" / "STATS.md")
    ap.add_argument("docs", nargs="+")
    args = ap.parse_args()

    kinds = load_catalogue(args.catalogue)
    for doc in args.docs:
        try:
            with open(doc) as f:
                data = json.load(f)
        except (OSError, ValueError) as err:
            fail(doc, f"unreadable: {err}")
        if not isinstance(data, dict) or data.get("schema") != SCHEMA:
            fail(doc, f"schema is not {SCHEMA}")
        counters = check_section(doc, data, "counters", "counter", kinds,
                                 check_counter)
        hists = check_section(doc, data, "histograms", "histogram", kinds,
                              check_histogram)
        print(f"check_stats: {doc}: ok ({counters} counters, "
              f"{hists} histograms)")


if __name__ == "__main__":
    main()
