#!/usr/bin/env python3
"""Self-test of the benchmark in BENCHMARK.json, at smoke sizes.

Run from the root of a checkout:

    python3 ledger/selftest.py

1. Every workload, untraced and traced, runs to its end with 0 failed
   operations, and prints exactly the metrics BENCHMARK.json lists.
2. Each oracle, fed a deliberately wrong expectation (--break-oracle), must
   report failed operations and an incorrect result.

Exit status 0 when every check passes.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The oracles each workload exercises.
ORACLES = {
    "shell-read": ["get", "select", "follower", "reopen"],
    "paged-embedded": ["nav", "select", "follower", "reopen"],
}


def run(spec, workload, trace, extra=()):
    cmd = spec["command"] + ["--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace),
                             "--smoke"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for w in ORACLES:
        for trace in (0, 1):
            res = run(spec, w, trace)
            label = "%s trace=%d" % (w, trace)
            if res is None:
                problems.append(label + ": did not run to its end")
                continue
            if res["failed"] != 0 or not res["correct"]:
                problems.append(label + ": %d failed" % res["failed"])
            got = set(res["metrics"])
            if got != names[trace]:
                problems.append(label + ": metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s" %
                                (sorted(names[trace] - got),
                                 sorted(got - names[trace])))
            print("%-32s attempted %-8d failed %d" %
                  (label, res["attempted"], res["failed"]))
        for oracle in ORACLES[w]:
            res = run(spec, w, 0, ["--break-oracle", oracle])
            label = "%s broken %s oracle" % (w, oracle)
            if res is None:
                problems.append(label + ": did not run to its end")
                continue
            if res["failed"] == 0 or res["correct"]:
                problems.append(label +
                                ": the wrong expectation went unnoticed")
            print("%-32s attempted %-8d failed %d" %
                  (label, res["attempted"], res["failed"]))
    for p in problems:
        print("FAIL: " + p)
    print("self-test %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
