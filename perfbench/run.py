#!/usr/bin/env python3
"""Builds the benchmark driver from the repo sources and runs one workload.

Usage, from the repo root:

    python3 perfbench/run.py --workload scale|unpruned|multiquery \
        --seed N --seconds S --trace 0|1 [--tiny]

The driver (perfbench/driver.cpp) is configured with CMake from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench, relative to the repo root) and rebuilt
incrementally on every call; build output goes to stderr. The driver's
standard output is passed through: human-readable '#' lines, then one JSON
result line. Its exit code is this script's. Each run also writes a record
with host facts, metrics, per-layer self times and all spans to
<build>/results/<workload>-seed<N>-trace<T>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale", "unpruned", "multiquery")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"{os.path.join(ROOT, 'src')} is missing; the benchmark builds "
             "the libraries from the repo sources")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help="shrink the workload to a test size")
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                 f"{'-tiny' if args.tiny else ''}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", record]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
