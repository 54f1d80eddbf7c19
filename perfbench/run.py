#!/usr/bin/env python3
"""Host-cost benchmark of the three atomic-broadcast stacks.

Builds perfbench/hostbench.exe from source with dune (release profile,
build directory .bench_build, dune cache off so nothing is written outside
the checkout) and runs it from the repository root:

    python3 perfbench/run.py --workload paper-n7 --seed 0 --seconds 10 --trace 0

The last line of standard output is the result object. Spans of a traced
run (--trace 1) and replay frame logs go to .bench_out/.

    python3 perfbench/run.py --self-test

is the short mode for the benchmark's own tests: one-second runs of every
workload in BENCHMARK.json, traced and untraced, checking that every
metric is printed with its declared unit and that failures are counted.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "hostbench.exe")


def build():
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled",
           "./perfbench/hostbench.exe"]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(EXE)


def pin():
    """Pins the benchmark to one CPU, the highest-numbered one it may use.
    On a 2-vCPU VM, CPU 0 carried more interrupt and steal time and ran the
    same ops 10-20 % slower than CPU 1; a process free to migrate between
    them changes speed from run to run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(workload, seed, seconds, trace):
    """Runs the benchmark once; returns (exit code, stdout text). The
    untimed correctness pass and probes come on top of the timed seconds."""
    timeout_s = max(170, 3 * seconds + 80)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % timeout_s, file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def check_result(spec, workload, trace, out):
    """Problems with one run's output, as a list of strings."""
    lines = out.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return ["last line is not JSON: %r" % lines[-1][:200]]
    problems = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(res))
        return problems
    if res["correct"] is not True:
        problems.append("correct is %r" % res["correct"])
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        problems.append("attempted %r" % res["attempted"])
    if not (isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]):
        problems.append("failed %r" % res["failed"])
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = res["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in declared):
        problems.append("metric names differ from BENCHMARK.json: %s" %
                        sorted(set(metrics) ^ {m["name"] for m in declared}))
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if sorted(got) != ["unit", "value"] or got["unit"] != m["unit"]:
            problems.append("%s printed as %r, declared unit %s" % (m["name"], got, m["unit"]))
        elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            problems.append("%s value %r" % (m["name"], got["value"]))
        elif not trace and got["value"] == 0:
            problems.append("end-to-end metric %s is 0" % m["name"])
    share = res["failed"] / max(1, res["attempted"])
    if trace and "failed_share" in metrics and abs(metrics["failed_share"]["value"] - share) > 1e-12:
        problems.append("failed_share %r, expected %r" % (metrics["failed_share"]["value"], share))
    if not trace and "pass_share" in metrics and abs(metrics["pass_share"]["value"] - (1 - share)) > 1e-12:
        problems.append("pass_share %r, expected %r" % (metrics["pass_share"]["value"], 1 - share))
    # Trial seeds 1-240 include the known monolithic total-order
    # violations at n = 5 (seeds 3 and 8 among them); the count must show
    # them.
    if workload == "faults-n5" and res["failed"] < 1:
        problems.append("faults-n5 seed 0 counted no failed trial")
    if res["failed"] > 0 and not any(l.startswith("failed: ") for l in lines[:-1]):
        problems.append("%d failed ops but none described" % res["failed"])
    return problems


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    pin()
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, out = run(w["name"], 0, 1, trace)
            problems = ["exit code %d" % code] if code else check_result(spec, w["name"], trace, out)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-12s trace=%d %s" % (w["name"], trace, status))
            failures += bool(problems)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    pin()
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    if code != 0:
        return code
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
