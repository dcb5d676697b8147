#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mmul-pf|bitcnt-orig|sweep|all \
        --seed N --seconds S --trace 0|1

The first call configures and builds an optimized (Release) copy of the
simulator libraries plus `perfbench` under .bench_build/; later calls only
re-check it.  Build output goes to standard error.  The program's standard
output is passed through unchanged: human-readable metric lines, then one
JSON result object as the last line.  The exit code is the program's; a
failed build or a timeout exits 1 without printing a result.

`--workload all` runs the three workloads one after another and ends with
one JSON object whose metric names are prefixed with the workload
("sweep.jobs_per_s").
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ["mmul-pf", "bitcnt-orig", "sweep"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def git_sha():
    """The checkout's HEAD commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_program(args, workload, capture):
    """Runs `perfbench` for one workload; returns (exit code, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--git-sha", git_sha()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("perfbench exceeded %d s on %s" % (RUN_TIMEOUT_S, workload))
    return proc.returncode, out or ""


def run_all(args):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_program(args, workload, capture=True)
        sys.stdout.write(out)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            fail("%s exited %d" % (workload, code))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            total["metrics"][workload + "." + name] = metric
    print(json.dumps(total))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.workload == "all":
        run_all(args)
        return
    sys.exit(run_program(args, args.workload, capture=False)[0])


if __name__ == "__main__":
    main()
