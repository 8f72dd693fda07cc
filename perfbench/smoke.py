#!/usr/bin/env python3
"""Smoke test of the campaign benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json with --size tiny, untraced and
traced, and checks that the result line names exactly the benchmark's
end-to-end (or per-layer) metrics with their units, that every value is
a finite number, and that the output check passed. Also checks that the
benchmark fails, without a result, in a directory holding only
BENCHMARK.json and the benchmark's own files. Run from the root of a
checkout; not part of the repo's ctest suite.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def run(cmd, cwd=None):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    failures = []
    for workload in bench["workloads"]:
        for trace, listed in (("0", bench["end_to_end"]),
                              ("1", bench["per_layer"])):
            label = f"{workload['name']} --trace {trace}"
            done = run([*bench["command"], "--workload", workload["name"],
                        "--seed", "7", "--seconds", "1", "--trace", trace,
                        "--size", "tiny"])
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}\n"
                                + done.stderr[-2000:])
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                failures.append(f"{label}: output check failed")
            if not result["attempted"] >= 1:
                failures.append(f"{label}: nothing attempted")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics {got} != {want}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or \
                        not math.isfinite(m["value"]):
                    failures.append(f"{label}: {name} = {m['value']!r}")
            print(f"ok   {label}", file=sys.stderr)

    # Without the program's sources the benchmark must refuse to run.
    with tempfile.TemporaryDirectory(dir=".") as bare:
        shutil.copy("BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(path, Path(bare) / path)
        done = run(bench["command"] + ["--workload",
                                       bench["workloads"][0]["name"],
                                       "--seed", "1", "--seconds", "1",
                                       "--trace", "0"], cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("bare directory: expected a failure without "
                            "a result")
        else:
            print("ok   bare directory refused", file=sys.stderr)

    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
