#!/usr/bin/env python3
"""Serving benchmark for the Fig. 4 loop of libhta's AssignmentService.

    python3 servebench/run.py --workload stream|pooled|churn|all \
        --seed N --seconds S --trace 0|1

Builds the library (as a subproject, tests/benches/examples off) and the
driver under .bench_build/servebench, runs the Eq. 1-3 reference test,
then runs the driver with every HTA_* environment override cleared and
HTA_THREADS pinned. --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics; a traced run also re-runs one deployment at
HTA_THREADS=1 and requires its deterministic digest to match.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero, without a result, when
the library sources are missing or the build fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
# Below nproc on a 4-vCPU machine: the crowd runs on the calling thread
# beside the pool, and at 4 pool threads tail latencies moved by up to
# 2x between identical runs.
THREADS = 2

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no libhta sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "servebench_driver", "eq3_reference_test"])
    steps.append([os.path.join(BUILD, "eq3_reference_test")])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("step failed: " + " ".join(step))


def run_driver(args, threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("HTA_")}
    env["HTA_THREADS"] = str(threads)
    done = subprocess.run([os.path.join(BUILD, "servebench_driver")] + args,
                          stdout=subprocess.PIPE, text=True, env=env,
                          timeout=170)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("driver failed (exit %d): %s" % (done.returncode, " ".join(args)))
    return lines[:-1], json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed)]
    info, out = run_driver(args + ["--seconds", str(seconds), "--trace",
                                   str(trace)], THREADS)
    for line in info:
        print(line)
    print("# nproc=%d HTA_THREADS=%d" % (os.cpu_count() or 0, THREADS))
    correct = out["correct"]
    if out["error"]:
        print("# check failed: " + out["error"])
    if trace:
        # The deterministic outcome must not depend on the thread count.
        _, serial = run_driver(args + ["--digest-only"], 1)
        if serial["digest"] != out["digest"]:
            correct = False
            print("# digest at HTA_THREADS=1 differs: %s vs %s"
                  % (serial["digest"], out["digest"]))
    names = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in out["metrics"]]
    if missing:
        fail("driver did not report " + ", ".join(missing))
    metrics = {n: out["metrics"][n] for n in names}
    return {"correct": bool(correct), "attempted": int(out["attempted"]),
            "failed": int(out["failed"]), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if args.workload == "all":
            print("## %s: correct=%s attempted=%d failed=%d" % (
                workload, result["correct"], result["attempted"],
                result["failed"]))
            for name, m in result["metrics"].items():
                print("##   %-34s %14.6g %s" % (name, m["value"], m["unit"]))
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
