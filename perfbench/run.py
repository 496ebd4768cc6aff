#!/usr/bin/env python3
"""Builds bench_adapex from source, then runs it with the given arguments.

    python3 perfbench/run.py --workload gen-train --seed 7 --seconds 10 --trace 0

With no --workload every workload runs (see README.md). The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench under the
repository root). Build output goes to stderr, so the benchmark's JSON
summary stays the last line of standard output. Exits with status 2, and
prints no result, when the adapex sources are missing or the build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def commit():
    """HEAD of the repository this file sits in ("-dirty" when the tree has
    uncommitted changes), or "unknown" outside a git checkout."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty",
                               "--abbrev=40"], capture_output=True, text=True)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: adapex sources (src/) not found beside perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(build_dir, "bench_adapex"),
           "--out", os.path.join(HERE, "out"),
           "--fixture", os.path.join(HERE, "fixtures", "library_cifar10_tiny_seed7.json"),
           "--commit", commit()] + argv
    # SIGTERM becomes an exception so subprocess.run kills and reaps the
    # benchmark before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
