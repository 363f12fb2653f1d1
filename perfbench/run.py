#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

    python3 perfbench/run.py --workload lulesh_fine --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first call configures and builds the
ats library plus the perfbench program (Release) into .bench_build/; later
calls only re-check the build.  Build output goes to stderr, so the
program's last stdout line (the JSON result) stays the last line.  All
arguments are passed to it unchanged; its exit code is this script's.
The program is stopped if it takes more than twice --seconds plus a
minute: the set-ups, the ledger and the traced pass come on top of the
measured time.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no ats sources here ({needed} missing at the repository root)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_timeout():
    """Seconds the program may take, from its --seconds (default 10)."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seconds", type=float, default=10)
    known, _ = parser.parse_known_args()
    return 2 * known.seconds + 60


def main():
    timeout = run_timeout()
    build()
    sys.stdout.flush()
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {timeout:g} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
