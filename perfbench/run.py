#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/METRICS.md).

    python3 perfbench/run.py --workload wire_hot --seed 1 --seconds 10 --trace 0

Builds the program from the checkout's own sources into
.bench_build/perfbench (CMake, incremental after the first run), then
runs one workload -- or all three with ``--workload all`` -- and
forwards what the benchmark prints: one line per metric with its unit,
then the result object as the last line of stdout.  Build output goes
to stderr.  The traced run (``--trace 1``) also writes its spans as
Chrome trace-event JSON to .bench_build/perfbench/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("wire_hot", "serve_churn", "replay_costmix")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the benchmark; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no program sources under src/ next to perfbench/",
              file=sys.stderr)
        sys.exit(4)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "--parallel", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            sys.exit(4)
    return os.path.join(BUILD, "perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, result dict or None)."""
    traces = os.path.join(BUILD, "traces")
    work = os.path.join(BUILD, "work")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-file", os.path.join(traces, workload + ".json"),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 5, None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stdout.write(proc.stdout)
        print("perfbench: %s printed no result (exit %d)"
              % (workload, proc.returncode), file=sys.stderr)
        return proc.returncode or 6, None
    return proc.returncode, (lines, result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = []
    status = 0
    for name in names:
        code, out = run_workload(binary, name, args.seed, args.seconds,
                                 args.trace)
        if out is None:
            return code
        status = status or code
        outputs.append((name, out))

    if len(outputs) == 1:
        lines, _ = outputs[0][1]
        print("\n".join(lines))
        return status

    # --workload all: each workload's lines, then one combined result
    # whose metric names carry the workload as a prefix.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, (lines, result) in outputs:
        print("== " + name)
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "." + metric] = value
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
