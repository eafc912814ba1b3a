#!/usr/bin/env python3
"""Builds and runs the served-system benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload small_adaptive --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (and the library sources it compiles from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, runs the benchmark program, and prints its report. The last line of
standard output is one JSON object with the keys correct, attempted, failed and
metrics; metrics holds exactly the end_to_end metrics of BENCHMARK.json
(--trace 0) or its per_layer metrics (--trace 1). Every other record the
program measured is printed above that line and written, tagged measured /
modelled / count, to the build directory's perfbench-out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources (src/) next to perfbench/")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload} (one of {', '.join(names)})")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "wn_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "perfbench-out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 and not lines[-1].startswith("{"):
        print(lines[-1])
        fail(f"benchmark program exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark program printed no result line")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"benchmark program did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = got
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
