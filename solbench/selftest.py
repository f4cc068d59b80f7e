#!/usr/bin/env python3
"""Self-test of the benchmark driver's own checks.

Usage, from the root of a checkout:  python3 solbench/selftest.py

For every workload, one expected byte is corrupted (--corrupt-expected) and
the run must report correct=false, at least one failed operation, and exit
non-zero. A clean run of every workload must pass, so the checks do not
fire on correct output. (fs_device_rw is left out: it is not a benchmark
workload while its read checks fail.) The driver must also refuse an
inherited SOLROS_* knob and a bad command line without printing a result.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["fs_cached_rw", "fs_device_p2p", "net_echo_open"]


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("SOLROS_")}


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    binary = run.build()
    if binary is None:
        return 1
    failures = []

    def check(name, ok):
        print("%s: %s" % ("ok  " if ok else "FAIL", name), flush=True)
        if not ok:
            failures.append(name)

    def run_workload(workload, *extra):
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", "0"] + list(extra),
            env=clean_env(), capture_output=True, text=True, timeout=170)
        return proc.returncode, last_json(proc.stdout)

    for workload in WORKLOADS:
        code, result = run_workload(workload, "--corrupt-expected")
        check("%s: corrupted expected byte fails the run" % workload,
              code != 0 and result is not None
              and result["correct"] is False and result["failed"] >= 1)
    for workload in WORKLOADS:
        code, result = run_workload(workload)
        check("%s: clean run passes" % workload,
              code == 0 and result is not None and result["correct"] is True
              and result["failed"] == 0)

    args = [binary, "--workload", "net_echo_open", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    env = clean_env()
    env["SOLROS_PROXY_SHARDS"] = "2"
    proc = subprocess.run(args, env=env, capture_output=True, text=True)
    check("inherited SOLROS_* knob is refused",
          proc.returncode != 0 and last_json(proc.stdout) is None)

    proc = subprocess.run(args[:-2], env=clean_env(), capture_output=True,
                          text=True)
    check("missing --trace is refused",
          proc.returncode != 0 and last_json(proc.stdout) is None)

    proc = subprocess.run(
        [binary, "--workload", "no_such_workload", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        env=clean_env(), capture_output=True, text=True)
    check("unknown workload is refused",
          proc.returncode != 0 and last_json(proc.stdout) is None)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
