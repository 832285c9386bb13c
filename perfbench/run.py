#!/usr/bin/env python3
"""Build and run the end-to-end time-to-solution benchmark.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload suite-1x1 --seed 1 --seconds 20 --trace 0

Workloads: suite-1x1, suite-2x2, dft-seq-2x2 (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics and
writes a span file under .bench_build/perfbench-out/. --small swaps in the
reduced problem suite (used by perfbench/test_bench.py).

The first call configures and builds the repository's libraries and the
benchmark driver into .bench_build/perfbench (CMake, RelWithDebInfo); later
calls only rebuild what changed. Build output goes to stderr; the last line
of stdout is the result object. Exits non-zero, without a result, when the
source tree or the build is missing or a CHASE_* policy variable is set.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench_e2e")
WORKLOADS = ("suite-1x1", "suite-2x2", "dft-seq-2x2")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt at %s; nothing to build" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_e2e",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names the
    code it measured even where no version-control metadata exists."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, "--commit", commit(),
           "--source-digest", source_digest()]
    if args.small:
        cmd.append("--small")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
