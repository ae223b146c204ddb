"""Fast engine vs message simulator: the measured-speedup contract + artifact.

Times the fast engine against the message-level oracle on four
≥10k-request scenarios, verifies bit-identity first, and archives every
measured ratio to ``BENCH_engine.json`` so CI gates the trajectory per
push (``repro-arrow results compare --baseline
benchmarks/bench_baseline.json --fresh BENCH_engine.json``):

* ``open_loop_unit`` — 10k Poisson requests, unit latency, complete
  graph, balanced binary overlay (the ``test_sim_throughput`` workload);
* ``open_loop_uniform`` — 12k Poisson requests under
  ``UniformLatency``: the fast engine's block draws against the message
  engine's scalar ``sample`` calls;
* ``closed_loop_uniform`` — a 64 x 200 closed loop with think and
  service time under ``UniformLatency`` (link sends and routed
  acknowledgements share one block-drawn stream);
* ``one_shot_storm`` — 20k simultaneous requests on a binary tree.

Each scenario times the two engines in interleaved repeats and keeps the
minimum of each (``benchmarks/engine_timing.py``).  ``open_loop_unit``
is timed once per module and shared by two tests:
``test_fast_engine_speedup_on_10k_requests`` holds it to the floor (5x
locally; ``REPRO_BENCH_RELAXED``, for shared CI runners, lowers it to
2x), and ``test_fast_engine_speedup_archive`` times the other three and
writes all four.  Every ratio is archived either way.
"""

import json
import os

import pytest
from engine_timing import interleaved_min, speedup_row

from repro.core.fast_arrow import run_arrow_fast
from repro.core.fast_closed_loop import closed_loop_arrow_fast
from repro.core.runner import run_arrow
from repro.graphs import complete_graph
from repro.graphs.generators import balanced_binary_tree_graph
from repro.net.latency import UniformLatency
from repro.spanning import balanced_binary_overlay, bfs_tree
from repro.workloads.closed_loop import closed_loop_arrow
from repro.workloads.schedules import one_shot, poisson

REQUESTS = 10_000
OPEN_REQUESTS = 12_000
CLOSED_REQUESTS_PER_PROC = 200  # x 64 procs = 12_800 requests
STORM_REQUESTS = 20_000

BENCH_PATH = "BENCH_engine.json"


def _assert_runs_identical(a, b):
    assert a.completions == b.completions
    assert list(a.completions) == list(b.completions)
    assert a.makespan == b.makespan
    assert a.network_stats == b.network_stats


def _open_loop_scenario(g, tree, sched, repeats, **kw):
    """Parity first, then interleaved timings of one open-loop workload."""
    # Equivalence first: speed means nothing if the answers drift.
    _assert_runs_identical(
        run_arrow(g, tree, sched, **kw), run_arrow_fast(g, tree, sched, **kw)
    )
    return speedup_row(
        len(sched),
        interleaved_min(
            {
                "message": lambda: run_arrow(g, tree, sched, **kw),
                "fast": lambda: run_arrow_fast(g, tree, sched, **kw),
            },
            repeats,
        ),
    )


@pytest.fixture(scope="module")
def complete64():
    g = complete_graph(64)
    return g, balanced_binary_overlay(g, 0)


@pytest.fixture(scope="module")
def open_loop_unit(complete64):
    """The 10k unit-latency scenario, timed once for the floor and the archive."""
    g, tree = complete64
    return _open_loop_scenario(
        g, tree, poisson(64, REQUESTS, rate=50.0, seed=1), repeats=7
    )


def test_fast_engine_speedup_on_10k_requests(benchmark, complete64, open_loop_unit):
    """Enforce the floor on ``open_loop_unit``."""
    g, tree = complete64
    sched = poisson(64, REQUESTS, rate=50.0, seed=1)
    benchmark(lambda: run_arrow_fast(g, tree, sched))
    speedup = open_loop_unit["speedup"]
    benchmark.extra_info["speedup_vs_message"] = speedup
    # Local runs clear 5x with ~2x headroom (typically ~10x); shared CI
    # runners get a relaxed floor so timing noise cannot fail the build
    # (the measured ratios are archived either way).
    floor = 2.0 if os.environ.get("REPRO_BENCH_RELAXED") else 5.0
    assert speedup >= floor, f"fast engine only {speedup:.1f}x faster"


def test_fast_engine_speedup_archive(benchmark, complete64, open_loop_unit):
    """Measure the other three scenarios, write all four to BENCH_engine.json."""
    archive = {"open_loop_unit": open_loop_unit}
    g, tree = complete64

    # --- open loop, stochastic latency (the block-draw regime) --------
    sched_u = poisson(64, OPEN_REQUESTS, rate=50.0, seed=1)
    lat = UniformLatency(0.2, 1.0)
    benchmark(lambda: run_arrow_fast(g, tree, sched_u, latency=lat, seed=1))
    archive["open_loop_uniform"] = _open_loop_scenario(
        g, tree, sched_u, repeats=7, latency=lat, seed=1
    )

    # --- closed loop, stochastic latency ------------------------------
    kw = dict(
        requests_per_proc=CLOSED_REQUESTS_PER_PROC,
        think_time=0.1,
        service_time=0.1,
        latency=UniformLatency(0.2, 1.0),
        seed=3,
    )
    assert closed_loop_arrow(g, tree, **kw) == closed_loop_arrow_fast(g, tree, **kw)
    archive["closed_loop_uniform"] = speedup_row(
        64 * CLOSED_REQUESTS_PER_PROC,
        interleaved_min(
            {
                "message": lambda: closed_loop_arrow(g, tree, **kw),
                "fast": lambda: closed_loop_arrow_fast(g, tree, **kw),
            },
            repeats=5,
        ),
    )

    # --- one-shot storm, deterministic --------------------------------
    gs = balanced_binary_tree_graph(STORM_REQUESTS)
    archive["one_shot_storm"] = _open_loop_scenario(
        gs, bfs_tree(gs, 0), one_shot(list(range(STORM_REQUESTS))), repeats=3
    )

    with open(BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(archive, fh, indent=2, sort_keys=True)
    for name, row in archive.items():
        benchmark.extra_info[name] = row["speedup"]
        print(
            f"\n{name}: message {row['message_seconds'] * 1e3:.1f} ms "
            f"(cpu {row['message_cpu_seconds'] * 1e3:.1f}), "
            f"fast {row['fast_seconds'] * 1e3:.1f} ms "
            f"(cpu {row['fast_cpu_seconds'] * 1e3:.1f}), "
            f"speedup {row['speedup']:.2f}x (cpu {row['cpu_speedup']:.2f}x) "
            f"over {row['requests']} requests"
        )


def test_fast_engine_throughput_hop_heavy(benchmark):
    """Hop-heavy variant (path graph): per-message savings dominate."""
    from repro.graphs import path_graph

    n = 128
    g = path_graph(n)
    tree = bfs_tree(g, 0)
    sched = poisson(n, 4_000, rate=4.0, seed=2)
    res = benchmark(lambda: run_arrow_fast(g, tree, sched))
    assert len(res.completions) == 4_000
    benchmark.extra_info["mean_hops"] = res.mean_hops


def test_fast_engine_throughput_storm(benchmark):
    """One-shot storm throughput on the fast engine alone."""
    n = 10_000
    g = balanced_binary_tree_graph(n)
    tree = bfs_tree(g, 0)
    sched = one_shot(list(range(n)))
    res = benchmark(lambda: run_arrow_fast(g, tree, sched))
    assert len(res.completions) == n
    benchmark.extra_info["mean_hops"] = res.mean_hops
