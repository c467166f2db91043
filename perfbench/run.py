#!/usr/bin/env python3
"""Builds the stindex benchmark from source and runs one workload.

    python3 perfbench/run.py --workload hist-cached --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark binary is configured and built
with CMake under $CARGO_TARGET_DIR (default .bench_build) in the checkout;
snapshot, WAL and Chrome trace files go to its work/ subdirectory. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. The exit code is the benchmark's: non-zero when a build step or an
answer check failed.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hist-cached", "hist-spill", "live-ingest")
# A run's limit is --seconds plus this allowance for its set-ups,
# reopens and checks.
SETUP_ALLOWANCE_S = 150


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def step(cmd, **kwargs):
    """Runs a build command with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            check=False, **kwargs)
    if result.returncode != 0:
        sys.exit(f"perfbench: {' '.join(map(str, cmd))} failed "
                 f"({result.returncode})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Test hook: the benchmark must then fail its answer check.
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources under {ROOT / 'src'}")

    build = build_dir() / "perfbench"
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    if not (build / "CMakeCache.txt").is_file():
        step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "-j", "4"])

    cmd = [build / "stindex_perfbench", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    timeout = args.seconds + SETUP_ALLOWANCE_S
    try:
        return subprocess.run(cmd, check=False, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {timeout} s")


if __name__ == "__main__":
    sys.exit(main())
