#!/usr/bin/env python3
"""Builds and runs the nexus end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload etl_fed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test

The first form configures and builds libnexus plus the benchmark binary
under .bench_build/perfbench in the checkout (build output goes to stderr),
then runs one workload. The binary prints every metric with its unit, a
correctness verdict and the run's stamp; its last line of standard output
is one JSON object {correct, attempted, failed, metrics}. --corrupt 1 is the
self-check: it corrupts one answer, and the run must report a failure.

--test builds and runs the harness's own tests, then the self-check on one
short run, and exits nonzero if either fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_stamp():
    """The git commit when run inside a clone, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_binary(args):
    """Runs the benchmark binary with its stdout passed through; returns (code, last line)."""
    env = dict(os.environ, PERFBENCH_COMMIT=source_stamp())
    cmd = [os.path.join(BUILD, "nexus_perfbench")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    last = ""
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3, ""
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if lines:
        last = lines[-1]
    return proc.returncode, last


def self_test():
    if not build("perfbench_harness_test"):
        return 2
    test = subprocess.run([os.path.join(BUILD, "perfbench_harness_test")])
    if test.returncode != 0:
        log("harness tests failed")
        return 1
    if not build("nexus_perfbench"):
        return 2
    code, last = run_binary(["--workload", "service_ingest", "--seed", "1", "--seconds", "1",
                             "--trace", "0", "--corrupt", "1"])
    try:
        result = json.loads(last)
    except ValueError:
        log("self-check printed no result")
        return 1
    if code == 0 or result["correct"] or result["failed"] < 1:
        log("self-check: a corrupted answer was not reported")
        return 1
    log("harness tests and self-check passed (the corrupted answer was caught)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["etl_fed", "graph_linalg", "service_ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if args.test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if not build("nexus_perfbench"):
        return 2
    code, _ = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--corrupt", str(args.corrupt)])
    return code


if __name__ == "__main__":
    sys.exit(main())
