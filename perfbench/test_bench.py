#!/usr/bin/env python3
"""Checks that the benchmark's answer checks can fail.

    python3 perfbench/test_bench.py

Run from the repository root. For every workload it runs one short clean
run, which must pass, and one run with a corrupted reference answer, which
must report correct=false and exit non-zero. It also runs the benchmark in
a directory that holds only BENCHMARK.json and perfbench/, where it must
exit non-zero without printing a result.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ["python3", "perfbench/run.py", "--seed", "7", "--seconds", "1",
       "--trace", "0"]


def run(args, cwd):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def result_line(proc):
    """The JSON result on the last line of stdout, or None."""
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    failures = []
    for workload in ("hist-cached", "hist-spill", "live-ingest"):
        clean = run(["--workload", workload], ROOT)
        result = result_line(clean)
        if clean.returncode != 0 or not result or not result["correct"]:
            failures.append(f"{workload}: clean run failed:\n{clean.stderr}")
        corrupt = run(["--workload", workload, "--corrupt-reference"], ROOT)
        result = result_line(corrupt)
        if (corrupt.returncode == 0 or not result or result["correct"]
                or result["failed"] < 1):
            failures.append(f"{workload}: corrupted reference not detected")
        print(f"{workload}: clean exit {clean.returncode}, corrupted exit "
              f"{corrupt.returncode}", flush=True)

    build = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bare = (build if build.is_absolute() else ROOT / build) / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    lone = run(["--workload", "hist-cached"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    if lone.returncode == 0 or result_line(lone) is not None:
        failures.append("benchmark without the library sources did not fail")
    print(f"without library sources: exit {lone.returncode}")

    for failure in failures:
        print("FAIL:", failure)
    print("PASS" if not failures else "FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
