"""Fast closed-loop engine vs message simulator: the wall-clock contract.

Times both engines on a Fig. 10-sized closed loop (complete graph,
balanced binary overlay, per-node service time, think time), verifies the
outputs are bit-identical, and records the speedup ratio in
``benchmark.extra_info`` so the trajectory lands in the archived
BENCH_*.json alongside the open-loop engine benchmark.  The four
subjects are timed in interleaved repeats, min-of-N each
(``benchmarks/engine_timing.py``), with ``process_time`` archived next
to the ``perf_counter`` times.

The strict speedup floor is gated to non-CI runs by default: on a ``CI``
runner the whole module is skipped (shared runners are far too noisy for
wall-clock floors, and the tier-1 suite already covers the parity
contract); ``REPRO_BENCH_RELAXED`` additionally lowers the local floor
for constrained machines.
"""

import os

import pytest
from engine_timing import interleaved_min

from repro.core.fast_closed_loop import (
    closed_loop_arrow_fast,
    closed_loop_centralized_fast,
)
from repro.graphs import complete_graph
from repro.spanning import balanced_binary_overlay
from repro.workloads.closed_loop import closed_loop_arrow, closed_loop_centralized

pytestmark = pytest.mark.skipif(
    bool(os.environ.get("CI")),
    reason="wall-clock speedup floors are gated to non-CI runs",
)

PROCS = 64
REQUESTS_PER_PROC = 150  # 9600 closed-loop requests end to end
KW = dict(requests_per_proc=REQUESTS_PER_PROC, service_time=0.1, think_time=0.1)


def _workload():
    g = complete_graph(PROCS)
    tree = balanced_binary_overlay(g, 0)
    return g, tree


def test_fast_closed_loop_speedup(benchmark):
    g, tree = _workload()

    slow = closed_loop_arrow(g, tree, **KW)
    fast = benchmark(lambda: closed_loop_arrow_fast(g, tree, **KW))
    # Equivalence first: speed means nothing if the answers drift.
    assert fast == slow
    central_slow = closed_loop_centralized(g, 0, **KW)
    central_fast = closed_loop_centralized_fast(g, 0, **KW)
    assert central_fast == central_slow

    timings = interleaved_min(
        {
            "message": lambda: closed_loop_arrow(g, tree, **KW),
            "fast": lambda: closed_loop_arrow_fast(g, tree, **KW),
            "central_message": lambda: closed_loop_centralized(g, 0, **KW),
            "central_fast": lambda: closed_loop_centralized_fast(g, 0, **KW),
        },
        repeats=5,
    )
    (message_s, message_cpu), (fast_s, fast_cpu) = timings["message"], timings["fast"]
    central_message_s = timings["central_message"][0]
    central_fast_s = timings["central_fast"][0]
    speedup = message_s / fast_s
    benchmark.extra_info["requests"] = PROCS * REQUESTS_PER_PROC
    benchmark.extra_info["message_engine_seconds"] = message_s
    benchmark.extra_info["fast_engine_seconds"] = fast_s
    benchmark.extra_info["message_engine_cpu_seconds"] = message_cpu
    benchmark.extra_info["fast_engine_cpu_seconds"] = fast_cpu
    benchmark.extra_info["speedup_vs_message"] = speedup
    benchmark.extra_info["centralized_speedup_vs_message"] = (
        central_message_s / central_fast_s
    )
    print(
        f"\narrow closed loop: message {message_s * 1e3:.1f} ms, "
        f"fast {fast_s * 1e3:.1f} ms, speedup {speedup:.1f}x; "
        f"centralized speedup {central_message_s / central_fast_s:.1f}x "
        f"over {PROCS * REQUESTS_PER_PROC} requests"
    )
    # Local runs clear 3x with headroom (typically ~5x); constrained
    # machines get a relaxed floor via REPRO_BENCH_RELAXED (the measured
    # ratio is archived in extra_info either way).
    floor = 1.5 if os.environ.get("REPRO_BENCH_RELAXED") else 3.0
    assert speedup >= floor, f"fast closed loop only {speedup:.1f}x faster"
