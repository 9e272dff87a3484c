#!/usr/bin/env python3
"""Builds and runs the simulator's benchmark, perfbench (see README.md).

From the repository root:

    python3 perfbench/run.py --workload apps|sync|pvm --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The harness (spp-perfbench) and the simulator libraries it links are built
from src/ into .bench_build/ on first use: Release, fibers, the library's
default build.  The harness prints every case's sim_ns and digest, the paper
comparison and the metrics; its last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  This script checks the metric
names against BENCHMARK.json and re-prints that line last.

--self-check runs every workload at smoke size, untraced and traced, then the
replay-exactness check on a small two-hypernode case.  It exits 0 only if
every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "spp-perfbench")
WORKLOADS = ("apps", "sync", "pvm")
# One run must finish well inside the 180 s a benchmark run is allowed.
RUN_TIMEOUT_S = 170
# These select another conductor backend, worker count, memo mode or PDES
# window than the library default.  One left over in the shell would
# silently change what runs, so they are dropped from the harness's
# environment (and the harness refuses to run while any is set).
SPP_ENV = ("SPP_CONDUCTOR", "SPP_SHARDS", "SPP_MEMO", "SPP_MEMO_DEBUG",
           "SPP_PDES_WINDOW")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "spp")):
        fail("the simulator sources (src/spp) are missing")
    commands = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        commands.append(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    commands.append(["cmake", "--build", BUILD, "--target", "spp-perfbench",
                     "-j", jobs])
    for command in commands:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(command))


def harness_env():
    env = dict(os.environ)
    for name in SPP_ENV:
        if env.pop(name, None) is not None:
            print("perfbench: ignoring %s; the benchmark runs the library "
                  "defaults" % name, file=sys.stderr)
    return env


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return sorted(m["name"] for m in spec["per_layer" if trace else "end_to_end"])


def run_harness(args, trace, env):
    """Runs the harness; returns its stdout lines and its parsed result."""
    try:
        proc = subprocess.run([HARNESS] + args, stdout=subprocess.PIPE,
                              env=env, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s: %s" % (RUN_TIMEOUT_S,
                                                   " ".join(args)), 1)
    if proc.returncode != 0:
        fail("harness exited with %d: %s" % (proc.returncode, " ".join(args)),
             1)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    names = sorted(result["metrics"])
    if names != metric_names(trace):
        fail("printed metric names differ from BENCHMARK.json: %s" % names, 1)
    return lines, result


def self_check(env):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_harness(
                ["--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--smoke"], trace, env)
            passed = result["correct"] and result["failed"] == 0
            ok = ok and passed
            print("self-check %s trace=%d: %s"
                  % (workload, trace, "ok" if passed else "FAILED"))
    replay = subprocess.run([HARNESS, "--replay-check"], env=env,
                            timeout=RUN_TIMEOUT_S)
    ok = ok and replay.returncode == 0
    print("self-check replay exactness: %s"
          % ("ok" if replay.returncode == 0 else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    build()
    env = harness_env()
    if args.self_check:
        return self_check(env)
    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        harness_args += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    lines, _ = run_harness(harness_args, args.trace == 1, env)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
