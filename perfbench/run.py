#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload startup|collectives|rma_churn \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake project on top of ../src) into .bench_build at
the repository root on first use, then runs it. Build output goes to stderr,
so the benchmark's last line on stdout is its JSON result. Exits non-zero,
without a result, when the simulator sources are missing or do not build.
See perfbench/README.md for the workloads, metrics and how to read a run.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources under src/; nothing to build")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    out = os.path.join(ROOT, ".bench_out")
    result = subprocess.run([BINARY, *sys.argv[1:], "--out", out])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
