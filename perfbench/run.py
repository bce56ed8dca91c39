#!/usr/bin/env python3
"""Build and run the LIBRA benchmark (libra_bench).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: matrix-cold, matrix-warm and serve-mix, as BENCHMARK.json
lists them, and studies-gen, which it leaves out (see
perfbench/README.md). The first call configures and builds the library
and the benchmark into .bench_build/perfbench (Release); later calls
only re-run the incremental build. Build output goes to stderr, so the
last stdout line is always the benchmark's result object. Exits non-zero
without a result when the build or the run fails.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "libra_bench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_build_step(cmd):
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if not run_build_step(configure):
            # A cache left by a checkout at another path cannot be
            # reused; start the build directory over once.
            log("configure failed; retrying in a clean build directory")
            for entry in os.listdir(BUILD):
                if entry != ".lock":
                    path = os.path.join(BUILD, entry)
                    if os.path.isdir(path):
                        shutil.rmtree(path)
                    else:
                        os.remove(path)
            if not run_build_step(configure):
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return run_build_step(["cmake", "--build", BUILD, "-j", jobs,
                               "--target", "libra_bench"])


def commit():
    """HEAD when ROOT is itself a git work tree, else "unknown"."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    if not build():
        log("build failed")
        return 1
    cmd = [BINARY] + sys.argv[1:] + ["--commit", commit()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
