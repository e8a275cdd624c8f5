#!/usr/bin/env python3
"""Build the benchmark and the `accmos` CLI from source, then run it.

    python3 perfbench/run.py --workload cold_compile|warm_stepping|serve_stream \
        --seed N --seconds S --trace 0|1

Build output goes to standard error; the benchmark's last line of
standard output is its result object. Binaries land in
`$CARGO_TARGET_DIR` (default `perfbench/target`).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--bin", "perfbench", "-p", "perfbench",
        ],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        return build.returncode or 1
    accmos = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "-p", "accmos", "--bin", "accmos",
        ],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if accmos.returncode != 0:
        return accmos.returncode or 1
    # A child, not exec: an exec'd process keeps this one's reaped-children
    # accounting, and the cargo builds above would then count towards the
    # benchmark's peak RSS of its children.
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
