#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage, from the root of a checkout:

  python3 solbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fs_cached_rw, fs_device_p2p, net_echo_open, and fs_device_rw,
which is not in BENCHMARK.json because it currently fails its read checks
(see solbench/workloads.h). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

The build goes to $CARGO_TARGET_DIR/solbench (default .bench_build/solbench)
under the checkout and is incremental, so only the first run compiles.
Every SOLROS_* environment variable is removed before the driver starts:
each one would change the configuration the numbers describe.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver exits well inside the 180 s a run may take; this is the
# backstop for a hung simulation.
RUN_TIMEOUT_S = 170


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "solbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "solbench"])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout)
            sys.stderr.write("build failed: %s\n" % " ".join(step))
            return None
    return os.path.join(build_dir, "solbench")


def main():
    binary = build()
    if binary is None:
        return 1
    env = dict(os.environ)
    for name in sorted(env):
        if name.startswith("SOLROS_"):
            sys.stderr.write("cleared inherited %s\n" % name)
            del env[name]
    sys.stdout.flush()
    try:
        result = subprocess.run([binary] + sys.argv[1:], env=env, cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("driver timed out after %d s\n" % RUN_TIMEOUT_S)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
