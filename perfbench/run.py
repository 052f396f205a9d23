#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload service --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

The perfbench executable and the simulator libraries it links are built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build), which also receives the
checkpoint images and Chrome traces a run writes. Build output goes to
standard error; the last line of standard output is its JSON result.
--seconds defaults to BENCHMARK.json's run_seconds.

`--workload all` runs the three workloads one after another (one host thread
each), prints each one's result line, and ends with one combined JSON line
whose metric names are prefixed with the workload.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("service", "mac_pressure", "checkpoint")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the executable; returns its path."""
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in cmds:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def run_one(binary, out_dir, args, workload):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    return proc.returncode, lines, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload != "all":
        code, lines, result = run_one(binary, out_dir, args, args.workload)
        if result is None:
            sys.stderr.write("\n".join(lines) + "\n")
            print("perfbench: no result was printed", file=sys.stderr)
            return code or 3
        print("\n".join(lines))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines, result = run_one(binary, out_dir, args, workload)
        print("== %s" % workload)
        print("\n".join(lines[:-1]))
        if result is None:
            print("perfbench: %s printed no result" % workload, file=sys.stderr)
            return code or 3
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
