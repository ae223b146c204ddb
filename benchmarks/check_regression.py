"""Benchmark regression gate: fresh speedups vs the committed baseline.

CI reruns ``benchmarks/test_fast_vs_message_engine.py`` on every push,
which rewrites ``BENCH_engine.json`` with freshly measured
fast-vs-message speedup ratios.  This script compares those fresh ratios
against the committed baseline copy: any scenario whose speedup fell
below ``baseline * (1 - tolerance)`` — or that vanished from the fresh
results — fails the gate with a named report, so a perf regression in
the fast engine (or its delay sources) turns the job red instead of
silently eroding the archived trajectory.  Improvements beyond the
tolerance are reported but never fail: the gate is one-sided, guarding
the floor.

The comparison itself lives in :func:`repro.results.compare.compare_bench`
(shared with ``repro-arrow results compare --baseline/--fresh``); this
script is the thin CI entry point with the historical flags and exit
codes.

Usage::

    python benchmarks/check_regression.py \
        --baseline bench_baseline.json --fresh BENCH_engine.json \
        --tolerance 0.25
"""

from __future__ import annotations

import argparse
import json
import os
import sys

try:
    from repro.results.compare import compare_bench
except ImportError:  # CI runs this script without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )
    from repro.results.compare import compare_bench


def compare(
    baseline: dict, fresh: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Compare per-scenario speedups; return (report_lines, regressions)."""
    return compare_bench(baseline, fresh, tolerance)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a fresh benchmark speedup regresses past "
        "the tolerance below its committed baseline."
    )
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH JSON (the reference ratios)")
    parser.add_argument("--fresh", required=True,
                        help="freshly measured BENCH JSON from this run")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop below baseline "
                             "(default 0.25 = -25%%)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")
    try:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        with open(args.fresh, encoding="utf-8") as fh:
            fresh = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench-gate FAILED: {exc}", file=sys.stderr)
        return 1
    report, regressions = compare(baseline, fresh, args.tolerance)
    for line in report:
        print(line)
    if regressions:
        for line in regressions:
            print(line, file=sys.stderr)
        print(
            f"bench-gate FAILED: {len(regressions)} scenario(s) regressed "
            f"more than {args.tolerance:.0%} below baseline",
            file=sys.stderr,
        )
        return 1
    print(f"bench-gate OK: {len(report)} scenario(s) within tolerance")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
