#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny scale.

Run from the root of a checkout:  python3 perfbench/selfcheck.py

Checks, for every workload in BENCHMARK.json:
  - the untraced run prints exactly the end_to_end metrics and the traced
    run exactly the per_layer metrics, by name and unit, and both pass;
  - a deliberately corrupted reference answer is counted as failed and
    makes the command exit non-zero;
and, for the static workloads, that two traced runs of one seed report
identical planner and scheduler share counts. Exits non-zero on the first
failed check.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

SCALE = "0.05"
SECONDS = "1"
# Counts taken over one exact pass of the query pool; they must repeat
# exactly between two runs of one seed.
DETERMINISTIC = [
    "core.planner.settled_negative_frac",
    "core.planner.settled_positive_frac",
    "core.planner.routed.SpaReach-BFL_frac",
    "core.planner.routed.SocReach_frac",
    "core.planner.routed.3DReach_frac",
    "core.3DReach.range_queries_per_query",
    "core.SpaReach-BFL.candidates_per_query",
    "core.SpaReach-BFL.greach_calls_per_query",
    "core.SocReach.descendants_per_query",
    "exec.queries_per_group",
    "exec.queries_per_region",
]


def run_bench(binary, out_dir, workload, seed, trace, corrupt=False):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE,
               "--out", out_dir]
    if corrupt:
        command.append("--corrupt-reference")
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def check(condition, message, output=""):
    if not condition:
        print("FAIL:", message)
        if output:
            print(output[-3000:])
        sys.exit(1)
    print("ok:", message)


def main():
    root = os.path.dirname(run.BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = run.build(os.path.abspath(os.path.join(target, "perfbench")))
    out_dir = os.path.abspath(os.path.join(target, "perfbench-selfcheck"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result, output = run_bench(binary, out_dir, workload, 7,
                                             trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace} passes", output)
            printed = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            check(printed == expected[trace],
                  f"{workload} trace={trace} prints the BENCHMARK.json "
                  f"metrics and units", output)
        code, result, output = run_bench(binary, out_dir, workload, 7, 0,
                                         corrupt=True)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{workload} counts a corrupted reference answer as failed "
              f"and exits non-zero", output)

    for workload in ("shared-hot", "paged-small-cache"):
        counts = []
        for _ in range(2):
            code, result, output = run_bench(binary, out_dir, workload, 11, 1)
            check(code == 0, f"{workload} traced run passes", output)
            counts.append({k: result["metrics"][k]["value"]
                           for k in DETERMINISTIC})
        check(counts[0] == counts[1],
              f"{workload} share counts repeat exactly for one seed",
              json.dumps(counts, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
