#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mmp-hepth --seed 1 --seconds 10 --trace 0

Builds the cem library and the runner from this checkout on first use (into
.bench_build/perfbench), runs the runner's self-tests, writes the seeded
corpus as TSV before any timing starts, then runs the workload in its own
process. Everything the runner prints is passed through; the last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the gated end-to-end metrics (--trace 0) or the per-layer ledger
(--trace 1). Exits non-zero, printing no result, when the build, the
self-tests or the run fail; exits 1 after the result when an output check
failed. See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "perfbench"
WORKLOADS = ("mmp-hepth", "grid-dblp", "serve-dblp", "durable-hepth")
BUILD_JOBS = "4"
# A run is sized to take well under this; the limit only stops a hung one.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def step(cmd, timeout=None):
    """Runs a build/set-up command with its output on stderr."""
    subprocess.run([str(c) for c in cmd], stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "-j", BUILD_JOBS,
          "--target", "perfbench", "perfbench_selftest"])
    step([BUILD / "perfbench_selftest"], timeout=60)


def generate(workload, seed, corpus_dir):
    """Writes the seeded corpora as TSV, in a process of its own."""
    step([BUILD / "perfbench", "gen", "--workload", workload, "--seed", seed,
          "--out", corpus_dir], timeout=RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    workdir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        build()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        generate(args.workload, args.seed, workdir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        shutil.rmtree(workdir, ignore_errors=True)
        log(f"perfbench: set-up failed: {err}")
        return 2

    try:
        proc = subprocess.run(
            [str(BUILD / "perfbench"), "run", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--corpus-dir", str(workdir),
             "--work-dir", str(workdir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        if args.trace and (workdir / "spans.json").exists():
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            shutil.copy(workdir / "spans.json",
                        traces / f"{args.workload}-{args.seed}.json")
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write("\n".join(lines) + "\n")
        log(f"perfbench: runner exited with {proc.returncode}")
        return proc.returncode or 2
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write("\n".join(lines) + "\n")
        log("perfbench: runner printed no result line")
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
