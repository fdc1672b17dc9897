#!/usr/bin/env python3
"""Build the interactive-cycle benchmark from source and run one workload.

    python3 cyclebench/run.py --workload plugin_cycle --seed 7 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and compiles
cyclebench/ (which builds the repository's src/ libraries) into
.bench_build/cyclebench; later calls only re-run the incremental build.
Everything the benchmark writes stays under .bench_build/. The build log and
the benchmark's human-readable report go to stderr; the last stdout line is
the JSON result. Extra arguments after the four standard ones are passed to
the benchmark binary (e.g. --scale 0.05 for a smoke run).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cyclebench")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark; exit non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("cyclebench: no src/ next to cyclebench/ - run from a full checkout\n")
        sys.exit(2)
    if shutil.which("cmake") is None:
        sys.stderr.write("cyclebench: cmake not found\n")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(2)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    build()
    work = os.path.join(ROOT, ".bench_build", "cyclebench-work")
    spans = os.path.join(ROOT, ".bench_build", "cyclebench-spans-%s.jsonl" % args.workload)
    cmd = [os.path.join(BUILD_DIR, "cyclebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work, "--spans-out", spans] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("cyclebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
