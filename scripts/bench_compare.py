#!/usr/bin/env python3
"""Diffs two BENCH_*.json result files and gates on regressions.

Usage:
  scripts/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]

Exits non-zero when the candidate's wall time regresses by more than
--threshold (fraction; default 10%) relative to the baseline. Virtual
cluster time is also compared, in total and per phase: it is
deterministic for a fixed workload, so any drift beyond
--virtual-threshold (default 0: exact equality) means the work the bench
performs actually changed, and the comparison says so — a wall-time delta
with unchanged virtual time is a real perf change (or machine noise),
while a wall-time delta alongside a virtual-time delta usually just means
the bench now does different work and the baseline should be regenerated.

The threshold can be widened for noisy CI machines without editing the
call site via KEYSTONE_BENCH_TOLERANCE (takes precedence over
--threshold when set).
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as err:
        sys.exit(f"bench_compare: cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        sys.exit(f"bench_compare: {path} is not valid JSON: {err}")


def fraction_delta(baseline, candidate):
    if baseline <= 0.0:
        return 0.0 if candidate <= 0.0 else float("inf")
    return (candidate - baseline) / baseline


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in BENCH_*.json")
    parser.add_argument("candidate", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="max tolerated wall-time regression as a fraction "
             "(default 0.10 = 10%%)")
    parser.add_argument(
        "--virtual-threshold", type=float, default=0.0,
        help="max tolerated virtual-time drift, in total and per phase, "
             "before the workload is considered changed (default 0)")
    args = parser.parse_args()

    env_tolerance = os.environ.get("KEYSTONE_BENCH_TOLERANCE")
    threshold = float(env_tolerance) if env_tolerance else args.threshold

    base = load(args.baseline)
    cand = load(args.candidate)

    if base.get("bench") != cand.get("bench"):
        sys.exit(
            f"bench_compare: comparing different benches: "
            f"{base.get('bench')!r} vs {cand.get('bench')!r}")

    failures = []

    base_wall = float(base.get("wall_seconds", 0.0))
    cand_wall = float(cand.get("wall_seconds", 0.0))
    wall_delta = fraction_delta(base_wall, cand_wall)
    wall_line = (f"wall_seconds: {base_wall:.4f}s -> {cand_wall:.4f}s "
                 f"({wall_delta:+.1%}, threshold +{threshold:.0%})")
    if wall_delta > threshold:
        failures.append(wall_line)
        wall_line += "  REGRESSION"
    print(f"[bench_compare] {wall_line}")

    base_virtual = float(base.get("virtual_seconds", 0.0))
    cand_virtual = float(cand.get("virtual_seconds", 0.0))
    virtual_delta = fraction_delta(base_virtual, cand_virtual)
    virtual_line = (
        f"virtual_seconds: {base_virtual:.4f}s -> {cand_virtual:.4f}s "
        f"({virtual_delta:+.1%}, threshold ±{args.virtual_threshold:.0%})")
    if abs(virtual_delta) > args.virtual_threshold:
        virtual_line += ("  WORKLOAD CHANGED — regenerate the baseline "
                         "if this is intentional")
        failures.append(virtual_line)
    print(f"[bench_compare] {virtual_line}")

    # Per-phase virtual-time split: localizes a drift, and catches one that
    # cancels out in the total.
    base_phases = base.get("virtual_seconds_by_phase", {})
    cand_phases = cand.get("virtual_seconds_by_phase", {})
    for phase in sorted(set(base_phases) | set(cand_phases)):
        b = float(base_phases.get(phase, 0.0))
        c = float(cand_phases.get(phase, 0.0))
        if b != c:
            delta = fraction_delta(b, c)
            phase_line = f"phase {phase}: {b:.4f}s -> {c:.4f}s ({delta:+.1%})"
            if abs(delta) > args.virtual_threshold:
                failures.append(phase_line)
            print(f"[bench_compare]   {phase_line}")

    if failures:
        print(f"[bench_compare] FAIL: {len(failures)} gate(s) tripped",
              file=sys.stderr)
        return 1
    print("[bench_compare] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
