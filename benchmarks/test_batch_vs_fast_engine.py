"""Batch engine vs fast engine: the measured-speedup contract + artifact.

Times the numpy batch engine against the pure-Python fast engine on
≥10k-request workloads in the regimes the batch engine targets —
stochastic latency models (block-buffered RNG draws) open- and
closed-loop, plus the one-shot initiation storm (vectorized slabs) —
verifies bit-identity first, and archives every measured ratio to
``BENCH_batch.json`` so CI tracks the perf trajectory per push.

Floors: locally the stochastic scenarios must clear a real speedup
(the batch engine's reason to exist); ``REPRO_BENCH_RELAXED`` drops the
floors for shared/parallel CI runners, where wall-clock ratios are
noise — the measured numbers are still archived either way.  Each
scenario times the two engines in interleaved repeats and keeps the
minimum of each (wall ``perf_counter`` for the floors, ``process_time``
archived next to it), so one slow phase of a shared host cannot sink
one side of a ratio alone.  The
deterministic storm scenario has no floor: the batch engine's contract
there is "no worse", which parity plus the archived ratio makes
auditable.
"""

import json
import os
import time

from repro.core.batch import closed_loop_arrow_batch, run_arrow_batch
from repro.core.fast_arrow import run_arrow_fast
from repro.core.fast_closed_loop import closed_loop_arrow_fast
from repro.graphs import complete_graph
from repro.graphs.generators import balanced_binary_tree_graph
from repro.net.latency import UniformLatency
from repro.spanning import balanced_binary_overlay, bfs_tree
from repro.workloads.schedules import one_shot, poisson

OPEN_REQUESTS = 12_000
CLOSED_REQUESTS_PER_PROC = 200  # x 64 procs = 12_800 requests
STORM_REQUESTS = 20_000

BENCH_PATH = "BENCH_batch.json"


def _interleaved_best(fast, batch, repeats):
    """Min-of-N timings of the two engines, taken in interleaved repeats.

    Each repeat times both subjects back to back, alternating which goes
    first, so a slow phase of a shared host hits both instead of one;
    the minimum over repeats is the least-disturbed run of each.  Returns
    ``{"fast": (perf_s, cpu_s), "batch": (perf_s, cpu_s)}`` with
    ``perf_counter`` wall time and ``process_time`` CPU time minimised
    independently.
    """
    best = {"fast": [float("inf")] * 2, "batch": [float("inf")] * 2}
    subjects = [("fast", fast), ("batch", batch)]
    for k in range(repeats):
        for name, fn in subjects if k % 2 == 0 else subjects[::-1]:
            w0, c0 = time.perf_counter(), time.process_time()
            fn()
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            best[name][0] = min(best[name][0], wall)
            best[name][1] = min(best[name][1], cpu)
    return {name: tuple(v) for name, v in best.items()}


def _scenario(requests, timings):
    (fast_s, fast_cpu), (batch_s, batch_cpu) = timings["fast"], timings["batch"]
    return {
        "requests": requests,
        "fast_seconds": fast_s,
        "batch_seconds": batch_s,
        "speedup": fast_s / batch_s,
        "fast_cpu_seconds": fast_cpu,
        "batch_cpu_seconds": batch_cpu,
        "cpu_speedup": fast_cpu / batch_cpu,
    }


def _assert_runs_identical(a, b):
    assert a.completions == b.completions
    assert list(a.completions) == list(b.completions)
    assert a.makespan == b.makespan
    assert a.network_stats == b.network_stats


def test_batch_engine_speedup_archive(benchmark):
    """Measure all three scenarios, enforce floors, write BENCH_batch.json."""
    relaxed = bool(os.environ.get("REPRO_BENCH_RELAXED"))
    archive = {}

    # --- open loop, stochastic latency (the block-RNG regime) ---------
    g = complete_graph(64)
    tree = balanced_binary_overlay(g, 0)
    sched = poisson(64, OPEN_REQUESTS, rate=50.0, seed=1)
    lat = UniformLatency(0.2, 1.0)
    fast = run_arrow_fast(g, tree, sched, latency=lat, seed=1)
    bat = benchmark(lambda: run_arrow_batch(g, tree, sched, latency=lat, seed=1))
    # Equivalence first: speed means nothing if the answers drift.
    _assert_runs_identical(fast, bat)
    archive["open_loop_uniform"] = _scenario(
        OPEN_REQUESTS,
        _interleaved_best(
            lambda: run_arrow_fast(g, tree, sched, latency=lat, seed=1),
            lambda: run_arrow_batch(g, tree, sched, latency=lat, seed=1),
            repeats=7,
        ),
    )

    # --- closed loop, stochastic latency ------------------------------
    kw = dict(
        requests_per_proc=CLOSED_REQUESTS_PER_PROC,
        think_time=0.1,
        service_time=0.1,
        latency=UniformLatency(0.2, 1.0),
        seed=3,
    )
    cf = closed_loop_arrow_fast(g, tree, **kw)
    cb = closed_loop_arrow_batch(g, tree, **kw)
    assert cf == cb  # ClosedLoopResult eq excludes wall clock
    archive["closed_loop_uniform"] = _scenario(
        64 * CLOSED_REQUESTS_PER_PROC,
        _interleaved_best(
            lambda: closed_loop_arrow_fast(g, tree, **kw),
            lambda: closed_loop_arrow_batch(g, tree, **kw),
            repeats=5,
        ),
    )

    # --- one-shot storm, deterministic (the slab/heapify regime) ------
    gs = balanced_binary_tree_graph(STORM_REQUESTS)
    ts = bfs_tree(gs, 0)
    ss = one_shot(list(range(STORM_REQUESTS)))
    sf = run_arrow_fast(gs, ts, ss)
    sb = run_arrow_batch(gs, ts, ss)
    _assert_runs_identical(sf, sb)
    archive["one_shot_storm"] = _scenario(
        STORM_REQUESTS,
        _interleaved_best(
            lambda: run_arrow_fast(gs, ts, ss),
            lambda: run_arrow_batch(gs, ts, ss),
            repeats=3,
        ),
    )

    with open(BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(archive, fh, indent=2, sort_keys=True)
    for name, row in archive.items():
        benchmark.extra_info[name] = row["speedup"]
        print(
            f"\n{name}: fast {row['fast_seconds'] * 1e3:.1f} ms "
            f"(cpu {row['fast_cpu_seconds'] * 1e3:.1f}), "
            f"batch {row['batch_seconds'] * 1e3:.1f} ms "
            f"(cpu {row['batch_cpu_seconds'] * 1e3:.1f}), "
            f"speedup {row['speedup']:.2f}x (cpu {row['cpu_speedup']:.2f}x) "
            f"over {row['requests']} requests"
        )

    # Floors: the stochastic regimes are the batch engine's raison
    # d'être and must show a real win locally; CI runners (shared,
    # parallelized) get the ratios archived without a floor.
    if not relaxed:
        assert archive["open_loop_uniform"]["speedup"] >= 1.2, archive
        assert archive["closed_loop_uniform"]["speedup"] >= 1.05, archive


def test_batch_engine_throughput_storm(benchmark):
    """Slab-heavy storm throughput on the batch engine alone."""
    n = 10_000
    g = balanced_binary_tree_graph(n)
    tree = bfs_tree(g, 0)
    sched = one_shot(list(range(n)))
    res = benchmark(lambda: run_arrow_batch(g, tree, sched))
    assert len(res.completions) == n
    benchmark.extra_info["mean_hops"] = res.mean_hops
