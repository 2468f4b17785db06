#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload prove|refute|cosim --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (the dfv libraries from src/ plus the benchmark) with CMake under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed.  Build output goes to stderr.  The benchmark's
stdout is passed through unchanged: its last line is the result object.
Traces and scratch files go to $CARGO_TARGET_DIR/out (default .bench_build/out).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=["prove", "refute", "cosim"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    try:
        r = subprocess.run([binary, "--workload", a.workload,
                            "--seed", str(a.seed),
                            "--seconds", str(a.seconds),
                            "--trace", a.trace,
                            "--out-dir", os.path.join(root, "out")],
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
