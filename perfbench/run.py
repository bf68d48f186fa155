#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload lan_flood --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

Configures and builds perfbench/ (which compiles ../src) into .bench_build/
at the repository root, then runs the measuring binary once per workload
and passes its output through.  The last line of a single-workload run is
the binary's JSON result; its metric names are checked against
BENCHMARK.json.  Exits non-zero, without a result line, when the sources
are missing, the build fails, or any correctness or determinism check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["lan_flood", "geo_rr", "chaos_mix"]
RUN_TIMEOUT_S = 175


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources not found at %s; run from a full checkout"
            % os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                die("build failed (full log in %s)" % log_path)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", os.path.join(BUILD, "spans")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    body, last = lines[:-1], lines[-1] if lines else ""
    for line in body:
        print(line)
    if proc.returncode != 0:
        print(last)
        die("%s failed its checks (exit %d)" % (workload, proc.returncode))
    result = json.loads(last)
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        die("%s printed metrics that do not match BENCHMARK.json" % workload)
    if not result["correct"] or result["attempted"] < 1:
        die("%s reported an incorrect run" % workload)
    return last


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.workload != "all":
        print(run_one(args.workload, args.seed, args.seconds, args.trace == 1))
        return
    results = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            print("## %s --trace %d" % (workload, int(trace)))
            results["%s/trace%d" % (workload, int(trace))] = json.loads(
                run_one(workload, args.seed, args.seconds, trace))
    print(json.dumps(results, sort_keys=True))


if __name__ == "__main__":
    main()
