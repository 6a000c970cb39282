#!/usr/bin/env python3
"""Entry point of the aars benchmark.

    python3 aarsbench/run.py --workload relay|campaign|storm --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark binary from source
(CMake, into $CARGO_TARGET_DIR or .bench_build) on first use, runs one
workload in one process, and prints the binary's result as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}.  Traced runs
write their spans to .bench_out/.  Exits non-zero when the build fails,
the sources are missing, or any output check fails.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(f"aarsbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark target; returns the binary."""
    binary = os.path.join(build_dir, "aarsbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        log(f"configuring {build_dir}")
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "aarsbench",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["relay", "campaign", "storm"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    if not os.path.exists(os.path.join(SOURCE_ROOT, "src", "CMakeLists.txt")):
        log(f"aars sources not found under {SOURCE_ROOT}/src")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(".bench_out",
                             f"spans_{args.workload}_{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{args.workload} printed an unreadable result: {lines[-1]!r}")
        return proc.returncode or 4
    os.makedirs(".bench_out", exist_ok=True)
    out_path = os.path.join(
        ".bench_out",
        f"result_{args.workload}_{args.seed}_trace{args.trace}.json")
    with open(out_path, "w") as f:
        json.dump(result, f)
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
