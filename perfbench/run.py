#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload open|explore --seed N \
        --seconds S --trace 0|1 [--smoke] [--bad-path-op]

Run from the root of the repository. The first run configures and
builds perfbench_driver (the library through the top-level
CMakeLists.txt, plus perfbench/driver.cc) into .bench_build/; later runs
only re-check the build. Build output
goes to standard error, so the last line of standard output is the
driver's result object. Exits non-zero, without a result, when the
library sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench", "perfbench_driver")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "aftermath.h")):
        fail("no library sources under src/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(BUILD_DIR, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "perfbench_driver"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    # Write the build output back now, not during the measured phase.
    os.sync()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["open", "explore"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trace, for the benchmark's own test")
    parser.add_argument("--bad-path-op", action="store_true",
                        help="add one op on a missing trace file")
    args = parser.parse_args()

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.bad_path_op:
        cmd.append("--bad-path-op")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
