#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The benchmark is its own CMake package
(perfbench/CMakeLists.txt) that compiles the repository's src/ from source;
it is configured and built under $CARGO_TARGET_DIR (default .bench_build)
on first use.  Each run works in a scratch directory under the same root,
removed afterwards; a traced run leaves its spans under <root>/traces.
The last line of stdout is the benchmark's JSON result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper-load", "range-scrub", "serve-zipf", "live-stream")
RUN_TIMEOUT_S = 170


def build(build_root, target):
    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", target])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return None
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if args.selftest:
        binary = build(build_root, "perfbench_selftest")
        return 2 if binary is None else subprocess.run([binary]).returncode

    binary = build(build_root, "perfbench")
    if binary is None:
        return 2
    work = os.path.join(build_root, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", work, "--trace-dir", os.path.join(build_root, "traces")]
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = child.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        sys.stdout.write(child.stdout)
        sys.stderr.write("perfbench: no result line (exit code %d)\n" % child.returncode)
        return child.returncode or 4
    sys.stdout.write(child.stdout)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
