#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it with the given arguments.

Run from the repository root:

    python3 perfbench/run.py --workload optimize-cold --seed 1 --seconds 20 --trace 0

The build goes to _build/ under the current directory with dune's shared
cache disabled, so nothing is written outside the checkout.  Build output
goes to standard error; a failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

TARGET = os.path.join("perfbench", "main.exe")


def main():
    root = os.getcwd()
    build = subprocess.run(
        ["dune", "build", "--root", root, "--cache=disabled", "--display=quiet", "./" + TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(root, "_build", "default", TARGET)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
