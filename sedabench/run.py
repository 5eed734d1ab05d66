#!/usr/bin/env python3
"""End-to-end benchmark of SEDA: builds the benchmark binary from source, runs one
workload and passes its result line through.

    python3 sedabench/run.py --workload keyword|ingest \
        --seed N --seconds S --trace 0|1

Run from the root of a SEDA checkout. The first run configures and builds
sedabench/ (which builds the repository's layer libraries) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the binary's JSON result. Images and span dumps go to
.bench_out/. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "seda_e2e_bench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
        timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "seda_e2e_bench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["keyword", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(build_dir))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
