#!/usr/bin/env python3
"""Build and run the measured-clock benchmark.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds the library from the checkout's own
sources (Release) together with the benchmark driver into .bench_build/;
later calls rebuild only what changed.  Build output goes to
.bench_build/perfbench-build.log, so standard output carries only the
driver's metric lines and, last, its one-line JSON result.  Traced runs
write their span files to .bench_out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
LOG = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("library sources not found (%s is missing); run from a "
                 "checkout of the repository" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(LOG, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail("build failed; see " + LOG)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    binary = build()
    cmd = [binary] + sys.argv[1:]
    if "--self-test" not in sys.argv[1:]:
        cmd += ["--out-dir", OUT_DIR]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
