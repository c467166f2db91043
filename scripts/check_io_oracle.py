#!/usr/bin/env python3
"""Checks the paper's I/O metric against a golden capture.

Runs each oracle bench at --threads=1 and --threads=4 with --json, keeps
the "series" and "io" sections of every report (per-query buffer misses,
accesses, false hits, page counts; no timings), and compares them with
bench/io_oracle.json. Any difference fails: the numbers are
deterministic, so a change means a page-cache or tree change moved the
paper's metric.

Usage:
  scripts/check_io_oracle.py BUILD_DIR [--golden PATH]
  scripts/check_io_oracle.py BUILD_DIR --write   # re-capture the golden

BUILD_DIR is a configured and built tree (the benches live in
BUILD_DIR/bench). Runs at the default STINDEX_SCALE=small.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCHES = [
    "bench_fig15_splits_io",
    "bench_fig17_range_io",
    "bench_fig18_snapshot_io",
    "bench_ablation_overlapping",
    "bench_ephemeral_equivalence",
    "bench_mv3r",
]
THREADS = [1, 4]
DEFAULT_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "..", "bench", "io_oracle.json")


def capture(build_dir):
    """Runs every bench at every thread count; returns the golden shape."""
    env = dict(os.environ)
    env.pop("STINDEX_THREADS", None)
    env.pop("STINDEX_SCALE", None)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for bench in BENCHES:
            binary = os.path.join(os.path.abspath(build_dir), "bench", bench)
            runs = {}
            for threads in THREADS:
                report = os.path.join(tmp, f"{bench}.t{threads}.json")
                run = subprocess.run([binary, f"--threads={threads}",
                                      f"--json={report}"],
                                     env=env, cwd=tmp, capture_output=True,
                                     text=True)
                if run.returncode != 0:
                    sys.stderr.write(run.stderr)
                    raise SystemExit(f"{bench} --threads={threads} exited "
                                     f"{run.returncode}")
                with open(report) as f:
                    data = json.load(f)
                runs[str(threads)] = {"series": data["series"],
                                      "io": data["io"]}
            out[bench] = runs
    return out


def describe_diff(expected, actual, where):
    """Yields one line per differing leaf, path-qualified."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                yield f"{where}.{key}: missing"
            elif key not in expected:
                yield f"{where}.{key}: unexpected"
            else:
                yield from describe_diff(expected[key], actual[key],
                                         f"{where}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield f"{where}: length {len(actual)}, golden {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from describe_diff(e, a, f"{where}[{i}]")
    elif expected != actual:
        yield f"{where}: {actual!r}, golden {expected!r}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir")
    parser.add_argument("--golden", default=DEFAULT_GOLDEN)
    parser.add_argument("--write", action="store_true",
                        help="overwrite the golden with this build's output")
    args = parser.parse_args()

    actual = capture(args.build_dir)
    if args.write:
        with open(args.golden, "w") as f:
            json.dump(actual, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.golden}")
        return 0

    with open(args.golden) as f:
        golden = json.load(f)
    diffs = list(describe_diff(golden, actual, "oracle"))
    if diffs:
        for line in diffs[:50]:
            print(line, file=sys.stderr)
        print(f"I/O oracle FAILED: {len(diffs)} difference(s)",
              file=sys.stderr)
        return 1
    print(f"I/O oracle identical: {len(BENCHES)} benches x threads "
          f"{THREADS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
