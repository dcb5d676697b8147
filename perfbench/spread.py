#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--seconds 10]
                                [--trace 0] [--bounds BENCHMARK.json]

For every metric of the result line it prints the median over the runs and
the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.  With
--bounds, each end-to-end spread is compared with a third of its bound.
Runs are sequential, so they never compete for the host.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bounds", help="BENCHMARK.json to check spreads against")
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d: run failed (exit %d)" % (seed, out.returncode))
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit("seed %d: incorrect result %s" % (seed, lines[-1]))
        row = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append("%s=%.6g" % (name, m["value"]))
        print("seed %d: %s" % (seed, " ".join(row)), flush=True)

    bounds = {}
    if args.bounds:
        with open(args.bounds) as f:
            bounds = {m["name"]: m["bound"]
                      for m in json.load(f)["end_to_end"]}
    ok = True
    print("%-26s %14s %-10s %8s" % ("metric", "median", "unit", "spread"))
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        note = ""
        if name in bounds:
            limit = bounds[name] / 3
            note = "ok" if spread < limit else "ABOVE bound/3 (%.3f)" % limit
            ok = ok and spread < limit
        print("%-26s %14.6g %-10s %8.4f %s" % (name, med, units[name],
                                               spread, note))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
