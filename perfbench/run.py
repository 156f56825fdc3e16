#!/usr/bin/env python3
"""Build and run the closed-loop benchmark from the root of a checkout.

    python3 perfbench/run.py --workload converge|churn|fleet --seed N \
        --seconds S --trace 0|1

Builds perfbench/main.exe with dune (build output goes to stderr), then
runs it with the same arguments. Its standard output, whose last line is
the JSON result, passes through unchanged. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

# The benchmark binary stops itself well before this; the limit only
# guarantees that a hung run is killed and reported as a failure.
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a lifeguard checkout (no dune-project or lib/ here)")
    dune = shutil.which("dune")
    if dune is None and "OPAMROOT" in os.environ and "OPAMSWITCH" in os.environ:
        dune = shutil.which(
            os.path.join(os.environ["OPAMROOT"], os.environ["OPAMSWITCH"], "bin", "dune")
        )
    if dune is None:
        fail("dune not found on PATH or in the opam switch")
    build = subprocess.run(
        [dune, "build", "--root", root, "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
