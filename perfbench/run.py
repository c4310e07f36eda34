#!/usr/bin/env python3
"""Build the program and the benchmark, then run one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Builds `graphkeys` (package gk-cli of the root workspace) and the
`perfbench` binary (its own workspace in this directory) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs that binary with the
given arguments. It prints a report and, as its last line, one
JSON object; its exit code is passed through. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    done = subprocess.run(cmd, stdout=sys.stderr, env={**os.environ, "CARGO_TARGET_DIR": target})
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile("Cargo.toml"):
        sys.exit("run.py: run from the repository root (no Cargo.toml here)")
    build(target, "-p", "gk-cli")
    build(target, "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), "--graphkeys", os.path.join(release, "graphkeys"), *sys.argv[1:]]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
