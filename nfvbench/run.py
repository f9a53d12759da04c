#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage (from the root of a checkout):
  python3 nfvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The executable is built with dune inside the checkout (shared build
cache off, so nothing is written outside it). The last line of standard
output is the benchmark's JSON result; build output goes to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(os.path.relpath(HERE, ROOT), "main.exe")


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("nfvbench: no dune-project beside the benchmark; nothing to build",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release",
         "--display", "quiet", "./" + TARGET],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("nfvbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
