#!/usr/bin/env python3
"""Builds and runs the libamo end-to-end benchmark.

    python3 perfbench/run.py --workload <kk_solo|replica_sweep|model_por> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds perfbench/ (which
builds libamo from this source tree) under .bench_build/, runs one workload,
and prints the result object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Besides the checks the workload makes itself, the exact
counts of every (workload, seed) are compared with
perfbench/reference_counts.json and with every earlier run in this build
directory; a difference makes the result incorrect.

Exit code: 0 when every check held, 1 when one failed (the result is still
printed), 2 when nothing could be measured (bad arguments, a failed build,
a crashed or hung benchmark).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("kk_solo", "replica_sweep", "model_por")
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
LEDGER = BUILD_ROOT / "counts_ledger.json"
REFERENCE = BENCH_DIR / "reference_counts.json"
COUNTS_PREFIX = "perfbench-counts "
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "amo_perfbench", "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")


def load_json(path, default):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return default


def check_counts(workload, seed, counts):
    """Problems found comparing `counts` with the committed reference and
    the ledger of earlier runs; records new counts in the ledger.

    Both files map "<workload>:<seed>" to {count name: value}; the reference
    key "<workload>:*" applies to every seed. Only names present on both
    sides are compared, so traced and untraced runs check each other."""
    problems = []
    key = f"{workload}:{seed}"
    reference = load_json(REFERENCE, {})
    for ref_key in (key, f"{workload}:*"):
        for name, want in reference.get(ref_key, {}).items():
            if name in counts and counts[name] != want:
                problems.append(f"{name} = {counts[name]}, reference "
                                f"{ref_key} has {want}")
    ledger = load_json(LEDGER, {})
    seen = ledger.setdefault(key, {})
    for name, value in counts.items():
        if name in seen and seen[name] != value:
            problems.append(f"{name} = {value}, an earlier run of {key} "
                            f"gave {seen[name]}")
    if not problems:
        seen.update(counts)
        tmp = LEDGER.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, LEDGER)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [str(BUILD_DIR / "amo_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(BUILD_ROOT / "work")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited {done.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"benchmark printed no result object: {e}")

    problems = []
    for line in lines[:-1]:
        print(line)
        if line.startswith(COUNTS_PREFIX):
            fingerprint = json.loads(line[len(COUNTS_PREFIX):])
            problems = check_counts(args.workload, args.seed,
                                    fingerprint["counts"])
    for p in problems:
        print(f"  FAILED: exact counts: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
