#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark package (perfbench/CMakeLists.txt)
compiles the library from ../src into the build directory named by
CARGO_TARGET_DIR (default .bench_build), then runs the perfbench program. Its
last line of standard output is the JSON result; build output goes
to standard error. --selftest builds and runs the benchmark's own tests.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot_reads", "cold_reads", "moving_objects", "campus_hierarchy"]


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 1
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300, sys.stderr)
        if rc != 0:
            return rc
    cmd = ["cmake", "--build", build_dir, "-j", "4"]
    for target in targets:
        cmd += ["--target", target]
    return run(cmd, 700, sys.stderr)


def main():
    # SIGTERM unwinds through run(), which then kills the child's group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.selftest:
        rc = build(build_dir, ["perfbench", "perfbench_test"])
        if rc == 0:
            rc = run([os.path.join(build_dir, "perfbench_test")], 300,
                     sys.stdout)
        return rc
    rc = build(build_dir, ["perfbench"])
    if rc != 0:
        return rc
    sys.stdout.flush()
    return run([os.path.join(build_dir, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", build_dir], 170, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
