#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are across seeds.

    python3 perfbench/steadiness.py --runs 10 --seed-base 401

Runs perfbench/run.py once per (workload, seed) for every workload in
BENCHMARK.json, untraced, for the run_seconds it fixes, then prints for
each end-to-end metric its median, first and third quartiles
(statistics.quantiles, n=4) and the quartile spread as a share of the
median, next to the metric's bound. A spread above a third of its bound is
flagged. Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=101)
    args = parser.parse_args()

    raw = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        raw[workload] = []
        for i in range(args.runs):
            seed = args.seed_base + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            raw[workload].append(values)
            ok = ok and result["correct"] and proc.returncode == 0
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4f" % kv for kv in values.items())), flush=True)

    print("\n| workload | metric | median | q1 | q3 | spread | bound | flag |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, runs in raw.items():
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "WIDE"
            print("| %s | %s | %.4f | %.4f | %.4f | %.4f | %.2f | %s |" % (
                workload, metric["name"], med, q1, q3, spread, metric["bound"], flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
