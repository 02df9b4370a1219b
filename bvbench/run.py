#!/usr/bin/env python3
"""Build bvbench from this checkout and run one workload.

Run from the repository root:

    python3 bvbench/run.py --workload bv_llc_bound --seed 1 \\
        --seconds 20 --trace 0

The simulator library (src/) and the benchmark are configured and
built into $CARGO_TARGET_DIR, or .bench_build when it is unset; an
up-to-date build costs about a second. Build output goes to stderr, so
the last line of stdout is the benchmark's summary object. Every
argument is passed to the bvbench binary, which rejects unknown ones;
spans and temporary sweep files go under <build dir>/out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "bvbench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("bvbench: build step failed: " + " ".join(step))


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    build(build_dir)
    binary = os.path.join(build_dir, "bvbench")
    out_dir = os.path.join(build_dir, "out")
    return subprocess.run([binary, *sys.argv[1:], "--out",
                           out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
