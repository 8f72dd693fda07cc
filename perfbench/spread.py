#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload matrix_fixed --runs 10 [--first-seed 1]
                                [--json summary.json]

For every end-to-end metric of BENCHMARK.json it prints the median of the
runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's regression bound. A spread at or above the bound makes the
metric unusable as a regression gate. --json writes the same summary
(with every run's value) in the form perfbench/baseline.json records.
Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*bench["command"], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: output check failed", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in values),
            file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs")
    summary = {}
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"  {m['name']:<28} median {med:<14.6g} spread {spread:7.4f}"
              f"  bound {m['bound']}")
        summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q[0],
                              "q3": q[2], "spread": spread, "values": v}
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload,
             "seeds": [args.first_seed, args.first_seed + args.runs - 1],
             "metrics": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
