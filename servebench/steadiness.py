#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same code.

    python3 servebench/steadiness.py

Set A runs seeds 1-10 and set B seeds 11-20, every workload in
BENCHMARK.json for its run_seconds. Runs alternate A/B, swapping which
side goes first every round, and the raw results go to
.bench_build/steadiness.json. For each workload and end-to-end metric it
prints both sets' medians and interquartile ranges (as a share of the
median, via statistics.quantiles(n=4)) and the difference of the
medians. A metric is within bound when both spreads and the difference
of the medians, in either direction, stay within its bound from
BENCHMARK.json. The failed share of attempted calls must be identical in
the two sets.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
OUT = os.path.join(ROOT, ".bench_build", "steadiness.json")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.exit("run failed: " + " ".join(cmd))
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit("incorrect output: " + " ".join(cmd) + "\n" + done.stdout)
    return result


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q[2] - q[0]) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for side in order:
                seed = 1 + i + (RUNS if side == "B" else 0)
                results[workload][side].append(
                    run_once(workload, seed, seconds))
                print("run %d %s %s seed %d done" % (i, workload, side, seed),
                      file=sys.stderr, flush=True)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(results, f)

    ok = True
    print("%-8s %-18s %12s %7s %12s %7s %8s %6s  %s" % (
        "workload", "metric", "median A", "IQR A", "median B", "IQR B",
        "B vs A", "bound", "verdict"))
    for workload in workloads:
        shares = {side: {r["failed"] / r["attempted"]
                         for r in results[workload][side]}
                  for side in ("A", "B")}
        if len(shares["A"] | shares["B"]) != 1:
            ok = False
            print("%-8s failed shares differ: %s" % (workload, shares))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in results[workload]["A"]]
            b = [r["metrics"][name]["value"] for r in results[workload]["B"]]
            med_a, iqr_a = spread(a)
            med_b, iqr_b = spread(b)
            change = (med_b - med_a) / med_a
            bound = metric["bound"]
            good = max(abs(change), iqr_a, iqr_b) <= bound
            ok = ok and good
            print("%-8s %-18s %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%% %5.0f%%  %s"
                  % (workload, name, med_a, 100 * iqr_a, med_b, 100 * iqr_b,
                     100 * change, 100 * bound,
                     "ok" if good else "OUT OF BOUND"))
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
