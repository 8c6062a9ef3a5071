#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json: are its end-to-end
metrics repeatable within their bounds?

Run from the root of a checkout:

    python3 ledger/steady.py [--runs 10] [--workloads shell-read,...]

It runs two sets of --runs rounds each, the first on seeds 1, 2, ... and
the second on seeds 1001, 1002, ..., which were not used while the
benchmark was built. A round runs every workload once, in forward order on
even rounds and reverse order on odd ones, with the round's seed. For each
set, workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (IQR / median) against the
metric's bound; every spread, setup_s's too, must stay within its bound.
It then checks that every set-2 median is within the bound of set 1's, in
either direction, and that the share of failed operations is the same.
Exit status is 0 only when every check passes. --runs and --workloads
narrow a tuning pass (say, --runs 5 on the workload that spreads most).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# First seed of each set; set 2's seeds were not used while building.
SEED_BASES = (1, 1001)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def run_set(spec, workloads, runs, seed_base):
    results = {w: [] for w in workloads}
    for r in range(runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            start = time.monotonic()
            res = run_once(spec, w, seed_base + r)
            results[w].append(res)
            print("  %-15s seed %-5d attempted %-8d failed %-4d %5.1f s" %
                  (w, seed_base + r, res["attempted"], res["failed"],
                   time.monotonic() - start),
                  file=sys.stderr)
    return results


def summarize(spec, results):
    """Prints the table; returns {workload: {metric: median}}, ok."""
    ok = True
    medians = {}
    for w, runs in results.items():
        medians[w] = {}
        print("\n%s (%d runs)" % (w, len(runs)))
        print("  %-24s %14s %14s %14s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            medians[w][m["name"]] = med
            verdict = ""
            if spread > m["bound"]:
                verdict, ok = "OVER", False
            elif spread > m["bound"] / 3:
                verdict = "wide"
            print("  %-24s %14.6g %14.6g %14.6g %8.4f %6.2f %s" %
                  (m["name"], q1, med, q3, spread, m["bound"], verdict))
        if (any(r["failed"] for r in runs) or
                not all(r["correct"] for r in runs)):
            print("  failed operations or incorrect results seen")
            ok = False
    return medians, ok


def failed_share(results):
    return {w: sorted(r["failed"] / r["attempted"] for r in runs)
            for w, runs in results.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True

    medians, results = [], []
    for n, base in enumerate(SEED_BASES, 1):
        print("set %d: seeds %d..%d" % (n, base, base + args.runs - 1),
              file=sys.stderr)
        results.append(run_set(spec, workloads, args.runs, base))
        print("\nset %d" % n)
        med, set_ok = summarize(spec, results[-1])
        medians.append(med)
        ok = ok and set_ok
    print("\nset 2 against set 1 (median change, worse is +)")
    for w in workloads:
        for name, m in bounds.items():
            a, b = medians[0][w][name], medians[1][w][name]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = ""
            if abs(b - a) > m["bound"] * a:
                flag, ok = "OVER", False
            print("  %-15s %-24s %+8.4f (bound %.2f) %s" %
                  (w, name, worse, m["bound"], flag))
    if failed_share(results[0]) != failed_share(results[1]):
        print("  failed-operation shares differ between the sets")
        ok = False
    print("\n%s" % ("steady" if ok else "NOT steady"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
