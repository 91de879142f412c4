#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the driver takes it.

Runs BENCHMARK.json's command ten times per workload (`--trace 0`), each
time with another seed, and prints for every end-to-end metric its median
and the distance between its first and third quartile as a share of the
median, next to the metric's bound. Run from the repository root:

    python3 benchmark/spread.py [--first-seed N] [--runs N] [--out set.json]

Two sets with different `--first-seed` are what `benchmark/README.md`
records; `--compare a.json b.json` prints their per-metric difference.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_set(spec, first_seed, runs):
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(first_seed, first_seed + runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} runs failed")
            for name, samples in values.items():
                samples.append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed} done", file=sys.stderr)
        results[workload] = values
    return results


def report(spec, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<24}{'metric':<28}{'median':>14}{'IQR/median':>12}{'bound':>8}")
    for workload, values in results.items():
        for name, samples in values.items():
            q1, _, q3 = statistics.quantiles(samples, n=4)
            mid = statistics.median(samples)
            print(f"{workload:<24}{name:<28}{mid:>14.6g}{(q3 - q1) / mid:>12.4f}{bounds[name]:>8.2f}")


def compare(spec, first, second):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<24}{'metric':<28}{'first':>14}{'second':>14}{'worse by':>10}{'bound':>8}")
    for workload, values in first.items():
        for name, samples in values.items():
            a = statistics.median(samples)
            b = statistics.median(second[workload][name])
            worse = (a - b) / a if better[name] == "higher" else (b - a) / a
            print(f"{workload:<24}{name:<28}{a:>14.6g}{b:>14.6g}{worse:>10.4f}{bounds[name]:>8.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write the set's raw values here")
    parser.add_argument("--compare", nargs=2, metavar="SET", help="compare two saved sets")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.compare:
        first, second = (json.load(open(path)) for path in args.compare)
        compare(spec, first, second)
        return
    results = run_set(spec, args.first_seed, args.runs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    report(spec, results)


if __name__ == "__main__":
    main()
