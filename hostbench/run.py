#!/usr/bin/env python3
"""Runs one workload of the host benchmark.

    python3 hostbench/run.py --workload compute|kv|echo|cold --seed N \
        --seconds S --trace 0|1

Builds the benchmark program (hostbench/CMakeLists.txt, which compiles the
repository's library from source) into .bench_build/hostbench, then runs it
from the repository root. Build output goes to stderr, so the last line of
stdout is the JSON result. The exit code is 0 only when every guest's output
was correct.

With --trace 0 the program runs PROCESSES times for S/PROCESSES seconds
each, and the end-to-end metrics are combined over the processes (see
combine()). Each process gets its own address-space layout: on the 4-vCPU VM
the benchmark was developed on, echo's guests/s read 25.1k-29.4k over four
processes with the same seed, and 28.0k-28.9k with address randomization
off, so one process measures its layout as much as the program. The traced
run (--trace 1) is one process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("compute", "kv", "echo", "cold")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 175
PROCESSES = 3
# Measured per trial; see combine().
TRIAL_METRICS = ("guests_per_s", "latency_p50_ms", "latency_p99_ms", "cpu_us_per_guest")


def build():
    """Configures once and builds the program; False (with the log on stderr) on failure."""
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "hostbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hostbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("hostbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def combine(results):
    """One result from the processes' results (each a parsed JSON line).

    The program reports each per-trial metric as the median over the half of
    its trials with the least steal (CPU time the hypervisor took from the
    machine; see hostbench.cc). Here the same rule runs over the trials of
    all processes pooled, so a process that fell wholly into a steal phase
    gives way to the calm trials of the others. rss_peak_mib, which steal
    does not move but allocation timing does, is the mean over the
    processes; setup_s, whose runs have outliers, is their median.
    """
    trials = sorted((t for r in results for t in r.get("trials", ())),
                    key=lambda t: t["steal"])
    calm = trials[:len(trials) // 2]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in TRIAL_METRICS:
            value = statistics.median(t[name] for t in calm)
        elif name == "rss_peak_mib":
            value = statistics.fmean(values)
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def run_processes(cmd, count):
    """Runs cmd count times; returns (exit code, combined result or None).

    Each process's own lines pass through; its result line is kept back.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for k in range(count):
        print("# process %d of %d" % (k + 1, count), flush=True)
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sys.stderr.write("hostbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
            return 3, None
        lines = done.stdout.splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        for line in lines[:-1] if result is not None else lines:
            print(line)
        if result is None:
            sys.stderr.write("hostbench: process %d printed no result\n" % (k + 1))
            return done.returncode or 3, None
        results.append(result)
        if done.returncode not in (0, 1):  # 1: a guest failed, still a result
            return done.returncode, None
    combined = combine(results)
    return (0 if combined["correct"] else 1), combined


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="check every guest against a wrong expected result "
                         "(proves the check can fail; the run must fail)")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("hostbench: no repository sources at %s\n" % ROOT)
        return 2
    if not build():
        return 2

    count = 1 if args.trace else PROCESSES
    cmd = [os.path.join(BUILD_DIR, "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / count), "--trace", str(args.trace)]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    sys.stdout.flush()
    rc, result = run_processes(cmd, count)
    if result is not None:
        print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
