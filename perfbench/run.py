#!/usr/bin/env python3
"""Build and run the CIM serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload detailed_steady --seed 1 --seconds 30 --trace 0

Builds the `perfbench` Rust package in release mode (offline; the
target directory is `$CARGO_TARGET_DIR`, default `.bench_build`), then
runs it single-threaded (`CIM_THREADS=1`). The last line of standard
output is the result JSON. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    # Cargo reports progress and errors on stderr; stdout stays clean.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=900)
    return done.returncode == 0


def main(argv):
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CIM_THREADS"] = "1"
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "cim-perfbench")
    done = subprocess.run([binary] + argv, cwd=ROOT, env=env, timeout=170)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
