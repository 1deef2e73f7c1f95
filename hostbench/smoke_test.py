#!/usr/bin/env python3
"""Smoke test of the host benchmark itself.

    python3 hostbench/smoke_test.py

For every workload (the ones BENCHMARK.json lists, and compute and cold),
in both modes, runs a one-second benchmark and checks that the result line
names exactly the metrics BENCHMARK.json lists for that mode, each with its
unit and a finite value, and that every guest passed. Then runs kv against a deliberately wrong expected checksum and checks that
every guest is counted as failed and the run exits nonzero, which proves the
correctness check can fail. Exits 0 when all checks pass.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "hostbench", "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def check_metrics(result, expected_units):
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("result keys %s" % sorted(result))
        return problems
    got = result["metrics"]
    if set(got) != set(expected_units):
        problems.append("missing %s, unexpected %s" % (
            sorted(set(expected_units) - set(got)), sorted(set(got) - set(expected_units))))
    for name, m in got.items():
        if m.get("unit") != expected_units.get(name):
            problems.append("%s unit %r" % (name, m.get("unit")))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s value %r" % (name, v))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    # compute and cold are not in BENCHMARK.json (too unsteady on small
    # hosts) but stay runnable, so they are checked too.
    for w in ("compute", "kv", "echo", "cold"):
        for trace in (0, 1):
            rc, result = run(w, trace)
            problems = ["no result line"] if result is None else check_metrics(result, units[trace])
            if result is not None and not (rc == 0 and result["correct"] and result["failed"] == 0
                                           and result["attempted"] >= 1):
                problems.append("rc=%d correct=%s failed=%s attempted=%s" % (
                    rc, result["correct"], result["failed"], result["attempted"]))
            print("%s %s trace=%d %s" % ("FAIL" if problems else "ok", w, trace, "; ".join(problems)))
            failures += bool(problems)

    rc, result = run("kv", 0, ["--corrupt-expected"])
    caught = (result is not None and rc != 0 and result["correct"] is False
              and result["attempted"] > 0 and result["failed"] == result["attempted"])
    print("%s kv with a corrupted expected checksum: rc=%d %s" % (
        "ok" if caught else "FAIL", rc,
        "" if result is None else "failed %d of %d" % (result["failed"], result["attempted"])))
    failures += not caught
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
