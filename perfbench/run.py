#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload matrix_fixed --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under
perfbench/; the benchmark's scratch files (per-repetition stores and
checkpoints, recorded work counts, Chrome traces) go to
perfbench-work/ beside it. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the sources are missing or the build fails.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

# A run measures for --seconds (at most 60) plus set-up and output checks;
# anything past this is a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    root = Path.cwd()
    required = [root / "CMakeLists.txt", root / "src",
                root / "perfbench" / "CMakeLists.txt",
                root / "perfbench" / "campaign_bench.cpp"]
    missing = [str(p.relative_to(root)) for p in required if not p.exists()]
    if missing:
        print("perfbench: not a checkout of the program; missing: " +
              ", ".join(missing), file=sys.stderr)
        return 2

    out_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_root.is_absolute():
        out_root = root / out_root
    build_dir = out_root / "perfbench"
    work_dir = out_root / "perfbench-work"

    def cmake(*args: str) -> bool:
        return subprocess.run(["cmake", *args], stdout=sys.stderr,
                              stderr=sys.stderr).returncode == 0

    if not (build_dir / "CMakeCache.txt").exists():
        if not cmake("-S", str(root / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"):
            print("perfbench: configure failed", file=sys.stderr)
            return 1
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not cmake("--build", str(build_dir), "-j", jobs):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", str(work_dir)]
    proc = subprocess.Popen([str(build_dir / "bin" / "perfbench_campaign"),
                             *args], start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s; killed",
              file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
