#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload <shared-hot|paged-small-cache|live-updates>
                           --seed <n> --seconds <s> --trace <0|1>
                           [--scale <f>] [--corrupt-reference]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout, is incremental, and its output goes to stderr. The binary's
stdout is passed through; its last line is the JSON result. The exit
status is the binary's: non-zero when any answer was wrong or any
operation failed, and non-zero without a result when the build fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j4", "--target", "perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["shared-hot", "paged-small-cache",
                                 "live-updates"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale),
               "--out", os.path.join(os.path.abspath(target), "perfbench-run")]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
