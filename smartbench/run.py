#!/usr/bin/env python3
"""SMART-Bench entry point: builds the benchmark from source, then runs it.

    python3 smartbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--loads seeded|paper]
    python3 smartbench/run.py --self-test

Run from the repository root. The build (CMake, Release) goes to
$CARGO_TARGET_DIR/smartbench, or .bench_build/smartbench when that is
unset; the first run builds, later runs only check that it is up to date.
Build output goes to stderr, so the benchmark's JSON result stays the last
line of stdout. Without the repository's sources the build fails and the
script exits non-zero without printing a result.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "smartbench")


def build(bdir):
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per build directory.
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        # A configure that failed leaves a cache but no Makefile: redo it.
        if not os.path.exists(os.path.join(bdir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-G", "Unix Makefiles",
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                      "smartbench", "smartbench_selftest"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.stderr.write("smartbench: build failed: %s\n" %
                                 " ".join(cmd))
                sys.exit(1)


def main(argv):
    bdir = build_dir()
    build(bdir)
    if argv == ["--self-test"]:
        cmd = [os.path.join(bdir, "smartbench_selftest")]
    else:
        cmd = [os.path.join(bdir, "smartbench")] + argv
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
