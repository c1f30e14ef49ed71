#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's median
and spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--first-seed N] [--seeds K]
                                [--trace 0|1] [--json OUT]

Run from the root of a checkout. Every run goes through perfbench/run.py
with the run_seconds of BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the table to this file")
    args = parser.parse_args()

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    table = {}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}")
            result = json.loads(run.stdout.rstrip("\n").split("\n")[-1])
            if not result["correct"] or result["failed"]:
                failed += 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for m in metrics:
            v = values[m["name"]]
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[m["name"]] = {"median": median, "spread": spread,
                               "bound": m.get("bound"), "values": v}
            bound = f"{m['bound']:.3f}" if "bound" in m else "-"
            print(f"{workload:14s} {m['name']:42s} median {median:14.6g} "
                  f"{m['unit']:6s} spread {spread:7.4f} bound {bound}")
        print(f"{workload:14s} runs with a failed check or op: {failed}")
        table[workload] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(table, f, indent=2)


if __name__ == "__main__":
    main()
