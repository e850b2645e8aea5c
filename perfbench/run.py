#!/usr/bin/env python3
"""Build and run the cachelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The harness is built from source into
.bench_build/ (CMake, Release) on every call; an up-to-date build costs
about a second.  Scratch files go to .bench_build/work/.  The last line
of standard output is the run's JSON result.  See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "cachelab_perfbench")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: cachelab sources (src/) not found", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD_DIR, "--target", "cachelab_perfbench",
            "-j", jobs]
    return subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
