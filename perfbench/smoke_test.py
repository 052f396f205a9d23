#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size per workload.

    python3 perfbench/smoke_test.py

For each workload run.py runs (`checkpoint` too, which BENCHMARK.json
does not gate), two untraced invocations must print the same virtual-time
digest; one traced invocation (which runs every shape untraced and
traced) must print the same digests again. Every invocation
must report correct=true with no failed operation and print every metric
BENCHMARK.json names for its mode. Run from the root of a checkout; the
first invocation builds the executable. Exits 0 when all checks pass.
"""
import json
import os
import re
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
DIGEST = re.compile(r"^digest\.(\w+) = (0x[0-9a-f]{16})", re.M)


def invoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    return proc.returncode, dict(DIGEST.findall(proc.stdout)), result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    def expect_result(code, result, names, label):
        expect(code == 0, "%s: exit code %d" % (label, code))
        expect(result["correct"] and result["failed"] == 0,
               "%s: correct=%s failed=%s" % (label, result["correct"], result["failed"]))
        missing = sorted(set(names) - set(result["metrics"]))
        expect(not missing, "%s: missing metrics %s" % (label, missing))

    untraced = {}
    e2e = [m["name"] for m in bench["end_to_end"]]
    for workload in WORKLOADS:
        first, second = invoke(workload, 0), invoke(workload, 0)
        for i, (code, digests, result) in enumerate((first, second)):
            expect_result(code, result, e2e, "%s untraced #%d" % (workload, i + 1))
        expect(workload in first[1], "%s: no digest printed" % workload)
        expect(first[1].get(workload) == second[1].get(workload),
               "%s: digest differs between invocations: %s vs %s"
               % (workload, first[1].get(workload), second[1].get(workload)))
        untraced[workload] = first[1].get(workload)

    code, traced, result = invoke(bench["workloads"][0]["name"], 1)
    expect_result(code, result, [m["name"] for m in bench["per_layer"]], "traced")
    for workload, digest in untraced.items():
        expect(traced.get(workload) == digest,
               "%s: traced digest %s != untraced %s" % (workload, traced.get(workload), digest))

    for message in failures:
        print("FAIL:", message)
    print("smoke: %s (%s)" % ("ok" if not failures else "FAILED",
                              ", ".join("%s=%s" % kv for kv in sorted(untraced.items()))))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
