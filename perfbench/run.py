#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark (see perfbench/README.md).

Usage, from the repository root:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest   # the benchmark's arithmetic tests

The first call configures and builds the keystone library and the harness
under $CARGO_TARGET_DIR (default .bench_build); later calls rebuild only
what changed. The harness's output passes through; its last line is the JSON
result. Exits nonzero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -1


def build(targets):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "-j", jobs, "--target"] + targets]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
            with open(log, errors="replace") as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return out


def selftest():
    out = build(["perfbench_math_test"])
    if out is None:
        return 1
    return subprocess.call([os.path.join(out, "perfbench_math_test")])


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, if present."""
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")

    out = build(["perfbench_harness"])
    if out is None:
        return 1
    cmd = [os.path.join(out, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(out, "traces")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: harness timed out\n")
        return 1
    lines = stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("".join(l + "\n" for l in lines))
        sys.stderr.write("perfbench: harness exited with %d\n" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write("".join(l + "\n" for l in lines))
        sys.stderr.write("perfbench: harness printed no result line\n")
        return 1
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: %s\n"
                         % sorted(set(result["metrics"]) ^ expected))
        return 1
    sys.stdout.write("".join(l + "\n" for l in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
