#!/usr/bin/env python3
"""Self-test of the benchmark in its smoke mode (small sizes, short runs).

    python3 perfbench/selftest.py

Run from the repository root. Checks that
  * every workload, untraced and traced, ends its output with one JSON
    object holding exactly the metrics BENCHMARK.json names, each with
    its unit, a finite value, correct = true and no failed operation;
  * handing each workload's checkers a perturbed coefficient table trips
    every gate that compares against the coefficients (correct = false,
    exit code 1, and each such gate's own CORRECTNESS line). The gates
    on publish convergence, capacity, placement and donors do not depend
    on the coefficients, so a perturbed table cannot trip them;
  * in a directory that holds only BENCHMARK.json and the benchmark's
    own files, the benchmark fails without printing a result.
Exits 0 when all checks pass.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE = ["--seed", "7", "--seconds", "1", "--smoke"]

# Per workload, a piece of the CORRECTNESS line of each gate a perturbed
# coefficient table must trip.
COEFFICIENT_GATES = {
    "serve_local": ["serve_local: answer for scenario",
                    "closed live sessions differ from predict_batch"],
    "fleet_routed": ["fleet_routed: answer for scenario"],
    "plan_waves": ["plan_waves: wave 0 move of VM"],
}


def run(args, cwd=ROOT):
    p = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p.stdout, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []

    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, result, out, err = run(["--workload", name, "--trace", str(trace)] + SMOKE)
            tag = "%s trace %d" % (name, trace)
            before = len(problems)
            if code != 0 or result is None:
                problems.append("%s: exit %d, no result\n%s%s" %
                                (tag, code, out[-2000:], err[-2000:]))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("%s: correct=%s failed=%s" % (tag, result.get("correct"),
                                                              result.get("failed")))
            if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                problems.append("%s: attempted=%s" % (tag, result.get("attempted")))
            metrics = result.get("metrics", {})
            if set(metrics) != set(expected[trace]):
                problems.append("%s: metric names differ: missing %s, extra %s" % (
                    tag, sorted(set(expected[trace]) - set(metrics)),
                    sorted(set(metrics) - set(expected[trace]))))
            for m, unit in expected[trace].items():
                v = metrics.get(m, {})
                if v.get("unit") != unit:
                    problems.append("%s: %s has unit %r, want %r" % (tag, m, v.get("unit"), unit))
                value = v.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append("%s: %s value %r" % (tag, m, value))
                elif trace == 0 and value <= 0:
                    problems.append("%s: end-to-end %s is %r" % (tag, m, value))
            if len(problems) == before:
                print("ok   %s" % tag)

        code, result, out, err = run(["--workload", name, "--trace", "0", "--perturb-check"] +
                                     SMOKE)
        findings = [l for l in out.splitlines() if l.startswith("CORRECTNESS: ")]
        missed = [g for g in COEFFICIENT_GATES[name] if not any(g in l for l in findings)]
        if code != 1 or result is None or result.get("correct") is not False or missed:
            problems.append("%s: a perturbed coefficient table did not trip %s "
                            "(exit %d, result %s)" % (name, missed or "the run", code, result))
        else:
            print("ok   %s perturbed reference trips %d gates" % (name, len(COEFFICIENT_GATES[name])))

    # Only BENCHMARK.json and the benchmark's own files: no program.
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    env_dir = os.path.join(bare, ".bench_build")
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=180,
                       env=dict(os.environ, CARGO_TARGET_DIR=env_dir))
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        problems.append("bare directory: exit %d, stdout %r" % (p.returncode, p.stdout[-500:]))
    else:
        print("ok   fails without the program's sources")

    for pr in problems:
        print("FAIL " + pr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
