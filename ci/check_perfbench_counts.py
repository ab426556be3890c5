#!/usr/bin/env python3
"""Compares one traced perfbench run's work counts with the pinned ones.

    ci/check_perfbench_counts.py PINNED_JSON WORKLOAD RUN_OUTPUT

RUN_OUTPUT holds what `perfbench run --seed 1 --trace 1` printed on standard
output; its last line is the JSON result, whose metrics are the per-layer
ledger. Every count PINNED_JSON lists for WORKLOAD must be in that ledger,
with unit "count" and the same value. Exits 1 naming each difference, 2 on
unusable input. A change that alters work on purpose updates PINNED_JSON
in the same commit and says why.
"""

import json
import sys


def main():
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    pinned_path, workload, run_path = sys.argv[1:]
    with open(pinned_path, encoding="utf-8") as f:
        pinned = json.load(f)
    if workload not in pinned:
        print(f"error: {pinned_path} pins no counts for {workload}",
              file=sys.stderr)
        return 2
    with open(run_path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (IndexError, KeyError, ValueError):
        print(f"error: {run_path} does not end in a perfbench result line",
              file=sys.stderr)
        return 2
    differences = []
    for name, want in pinned[workload].items():
        got = metrics.get(name)
        if got is None:
            differences.append(f"{name}: missing from the ledger, pinned {want}")
        elif got.get("unit") != "count":
            differences.append(f"{name}: unit {got.get('unit')!r}, not count")
        elif got.get("value") != want:
            differences.append(f"{name}: {got.get('value')}, pinned {want}")
    if differences:
        print(f"error: {workload} work counts differ from {pinned_path}:",
              file=sys.stderr)
        for line in differences:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"-- {workload}: {len(pinned[workload])} pinned counts equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
