"""Fault-injection benchmark: recovery metrics + the zero-cost contracts.

Regenerates ``BENCH_faults.json`` from real runs (gitignored like every
``BENCH_*.json``; CI uploads it as a per-push artifact):

* ``crash_recovery`` — a 3200-request open-loop run through two node
  crashes: the recovery metrics (corrections, lost requests,
  time-to-recovery) the sweep's fault axis persists per row;
* ``loss_1pct`` — the same workload under 1% i.i.d. message loss;
* ``empty_plan_overhead`` — :func:`repro.faults.run_arrow_faulted` with
  the empty plan vs :func:`repro.core.fast_arrow.run_arrow_fast`: the
  fault layer must be (near) free when no faults are injected;
* ``monitor_overhead`` — the Fig. 10-style closed loop with the
  ``on_event`` hook left at ``None`` vs a full deep-checking
  :class:`~repro.monitors.ArrowMonitor` attached: what the runtime
  monitors cost when you turn them on (disabled hooks are a pre-bound
  ``None`` test per event site, which is what keeps the fault-free
  engines at parity).

Floors: the empty-plan ratio — the median over 15 interleaved pairs of
runs, each pair timed back to back — must stay under 1.05 locally (the
monitor overhead, interleaved min-of-3, is archived, not gated);
``REPRO_BENCH_RELAXED`` (shared CI runners) drops the wall-clock floors
but still archives every measured ratio.  The recovery *metrics* are
exact deterministic values either way — they are also pinned at small
scale by ``tests/core/test_faults.py``.
"""

import json
import os

from engine_timing import interleaved_min, paired_ratio

from repro.core.fast_arrow import run_arrow_fast
from repro.core.fast_closed_loop import closed_loop_arrow_fast
from repro.faults import run_arrow_faulted
from repro.graphs import complete_graph
from repro.monitors import ArrowMonitor
from repro.spanning import balanced_binary_overlay
from repro.workloads.schedules import poisson

BENCH_PATH = "BENCH_faults.json"

N = 32
REQUESTS = 3200
CRASH_PLAN = "crash@40.0:5,crash@200.0:11"
LOSS_PLAN = "loss:0.01"


def test_fault_recovery_archive(benchmark):
    relaxed = bool(os.environ.get("REPRO_BENCH_RELAXED"))
    graph = complete_graph(N)
    tree = balanced_binary_overlay(graph, 0)
    schedule = poisson(N, REQUESTS, rate=8.0, seed=1)
    archive = {}

    # --- crash recovery ----------------------------------------------
    result, report = benchmark(
        lambda: run_arrow_faulted(
            graph, tree, schedule, CRASH_PLAN, seed=1, service_time=0.1
        )
    )
    assert report.repairs_run >= 1
    assert report.final_violations == 0
    assert len(result.completions) + report.requests_lost == REQUESTS
    archive["crash_recovery"] = {
        "requests": REQUESTS,
        **report.as_columns(),
    }

    # --- 1% message loss ---------------------------------------------
    result, report = run_arrow_faulted(
        graph, tree, schedule, LOSS_PLAN, seed=1, service_time=0.1
    )
    assert report.messages_dropped > 0
    assert report.final_violations == 0
    assert len(result.completions) + report.requests_lost == REQUESTS
    archive["loss_1pct"] = {
        "requests": REQUESTS,
        **report.as_columns(),
    }

    # --- empty-plan overhead (fault layer must be near-free) ---------
    plain = run_arrow_fast(graph, tree, schedule, seed=1, service_time=0.1)
    faulted, _ = run_arrow_faulted(
        graph, tree, schedule, "", seed=1, service_time=0.1
    )
    assert faulted.completions == plain.completions  # bit-identity first
    assert faulted.makespan == plain.makespan
    ratio, plain_s, faulted_s = paired_ratio(
        lambda: run_arrow_fast(graph, tree, schedule, seed=1, service_time=0.1),
        lambda: run_arrow_faulted(
            graph, tree, schedule, "", seed=1, service_time=0.1
        ),
        repeats=15,
    )
    archive["empty_plan_overhead"] = {
        "requests": REQUESTS,
        "plain_seconds": plain_s,
        "faulted_seconds": faulted_s,
        "overhead_ratio": ratio,
    }
    if not relaxed:
        assert ratio < 1.05, f"empty fault plan costs {ratio:.3f}x"

    # --- monitor overhead on the Fig. 10 closed loop -----------------
    kw = dict(requests_per_proc=100, think_time=0.1, service_time=0.1, seed=3)
    bare = closed_loop_arrow_fast(graph, tree, **kw)
    monitor = ArrowMonitor(tree)
    watched = closed_loop_arrow_fast(graph, tree, on_event=monitor, **kw)
    monitor.finalize(expected=watched.total_requests)
    assert watched == bare  # ClosedLoopResult eq excludes wall clock

    def monitored():
        m = ArrowMonitor(tree)
        closed_loop_arrow_fast(graph, tree, on_event=m, **kw)

    timings = interleaved_min(
        {"off": lambda: closed_loop_arrow_fast(graph, tree, **kw), "on": monitored},
        repeats=3,
    )
    off_s, on_s = timings["off"][0], timings["on"][0]
    archive["monitor_overhead"] = {
        "requests": N * 100,
        "monitors_off_seconds": off_s,
        "monitors_on_seconds": on_s,
        "overhead_ratio": on_s / off_s,
    }

    with open(BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(archive, fh, indent=2, sort_keys=True)
    benchmark.extra_info.update(archive)
