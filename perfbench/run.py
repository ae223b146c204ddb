"""Repository benchmark: four workloads, end-to-end metrics or a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload fig11_open --seed 0 --seconds 27 --trace 0

``--trace 0`` measures the end-to-end metrics declared in
``BENCHMARK.json`` with tracing off; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics.  Either way the
outputs are checked (pinned row hashes at the default seed, byte
identity across passes, a message-engine replay of a seeded sample) and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go
to ``.perfbench-work/`` under the repository root and are removed on
exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import suite  # noqa: E402
from repro.sweep import percentile_nearest_rank  # noqa: E402
from spans import CELL, NullTracer, Tracer  # noqa: E402

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Times are reported scaled to a host on which ``speed.speed_probe``
#: takes this long: each cell by the probes either side of it
#: (``speed.SpeedLog``), each set-up by the probes its interpreter times
#: just before and after it.
REFERENCE_PROBE_S = 0.004
#: Speed probes whose median times the host before and after a set-up.
SETUP_PROBES = 5
#: Every run measures at least this many passes (traced rounds), however
#: long they take.
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2
PINS = os.path.join(HERE, "pins.json")

#: Per-layer ms metrics: the span names whose self time each one sums.
LAYER_SPANS = {
    "graphs.build_ms": ("graphs.build",),
    "spanning.build_ms": ("spanning.build",),
    "workloads.schedule_ms": ("workloads.schedule",),
    "core.engine_ms": ("core.engine", "core.engine_sync", "core.engine_async"),
    "core.engine_sync_ms": ("core.engine_sync",),
    "core.engine_async_ms": ("core.engine_async",),
    "faults.run_ms": ("faults.run",),
    "stats.columns_ms": ("stats.columns",),
    "persist.write_ms": ("persist.write",),
    "analysis.ratio_ms": ("analysis.ratio",),
    "executor.row_ms": ("executor.row",),
    "executor.other_ms": ("executor.cell",),
}
#: Per-layer counts that repeat exactly from pass to pass.
LAYER_COUNTS = (
    "core.messages",
    "core.hops",
    "faults.requests_lost",
    "faults.repairs_run",
    "persist.bytes",
    "store.bytes",
)
#: Boundary timings of the orchestrated pass, in the parent (seconds).
BOUNDARY_MS = {
    "persist.merge_ms": "persist.merge",
    "store.ingest_ms": "store.ingest",
    "store.read_ms": "store.read",
}


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def emit(section: str, values: dict[str, float], notes: dict[str, str], declared: dict) -> dict:
    """Print every metric of ``section`` with its unit; return the JSON map.

    Refuses a name that ``BENCHMARK.json`` does not declare and a
    declared name without a value, so the command prints exactly the
    declared set.
    """
    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(values) != set(units):
        raise ValueError(
            f"{section}: undeclared {sorted(set(values) - set(units))}, "
            f"missing {sorted(set(units) - set(values))}"
        )
    out = {}
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:28s} {values[name]:>14.6g} {units[name]}{note}")
        out[name] = {"value": values[name], "unit": units[name]}
    return out


def run_passes(seconds: float, minimum: int, one_round) -> list:
    """Call ``one_round()`` at least ``minimum`` times, until ``seconds`` would be overrun."""
    rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()
        began = time.perf_counter()
        rounds.append(one_round())
        took = time.perf_counter() - began
        if len(rounds) >= minimum and time.perf_counter() - start + took > seconds:
            return rounds


class Checker:
    """Counts attempted and failed units across passes and checks."""

    def __init__(self, workload: suite.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None

    def add_pass(self, result: suite.PassResult, label: str) -> None:
        """Count a pass; its rows must equal the first pass's byte for byte."""
        self.attempted += result.attempted
        self.failed += result.failed
        if self.reference is None:
            self.reference = result.lines
            return
        for cid, line in result.lines.items():
            if self.reference.get(cid) != line:
                print(f"perfbench: {label} pass: {cid} differs from the first pass",
                      file=sys.stderr)
                self.failed += 1

    def check_pins(self) -> None:
        """At the default seed, every unit's digest must match ``pins.json``."""
        if self.workload.seed != suite.DEFAULT_SEED:
            return
        with open(PINS, "r", encoding="utf-8") as fh:
            pinned = dict(json.load(fh)[self.workload.name])
        got = {cid: suite.sha256(line) for cid, line in (self.reference or {}).items()}
        bad = sorted(cid for cid in pinned.keys() | got.keys() if pinned.get(cid) != got.get(cid))
        for cid in bad:
            print(f"perfbench: {cid}: digest {got.get(cid)} != pinned {pinned.get(cid)}",
                  file=sys.stderr)
        self.failed += len(bad)

    def replay(self) -> None:
        attempted, failed = self.workload.replay(self.reference or {})
        self.attempted += attempted
        self.failed += failed


def scaled(p: suite.PassResult) -> tuple[float, float, list[float]]:
    """A pass's wall, CPU and cell times scaled to the reference host.

    Each cell is scaled by the probes either side of it; the wall and
    CPU seconds by the factor over all the pass's cells.
    """
    cells = [ms * REFERENCE_PROBE_S / s for ms, s in zip(p.cell_ms, p.cell_probe_s)]
    if not cells:
        raise RuntimeError("no cell completed")
    factor = sum(cells) / sum(p.cell_ms)
    return p.wall_s * factor, p.cpu_s * factor, cells


def pooled(values: list[float], p: float) -> float:
    return percentile_nearest_rank(sorted(values), p)


def setup_seconds(workload: suite.Workload) -> list[tuple[float, float]]:
    """Fresh interpreters: import repro, bootstrap the registry, expand the grid.

    Returns ``(host seconds, speed factor)`` per set-up.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, probe, workload.name, str(workload.seed), workload.workdir,
             str(SETUP_PROBES)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, before, after = map(float, done.stdout.split()[-3:])
        out.append((seconds, 2 * REFERENCE_PROBE_S / (before + after)))
    return out


def end_to_end_values(
    passes: list[suite.PassResult],
    setups: list[tuple[float, float]],
    maxrss_kb: int,
) -> dict[str, float]:
    """End-to-end metrics from the timed passes and ``(seconds, factor)`` set-ups.

    Times are host times scaled to the reference host; see
    ``REFERENCE_PROBE_S``.
    """
    walls, cpus, cell_ms = [], [], []
    for p in passes:
        wall, cpu, cells = scaled(p)
        walls.append(wall)
        cpus.append(cpu)
        cell_ms += cells
    return {
        "setup_s": statistics.median(s * f for s, f in setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "cell_ms_p50": pooled(cell_ms, 50),
        "cell_ms_p75": pooled(cell_ms, 75),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }


def end_to_end(workload: suite.Workload, seconds: float, declared: dict) -> tuple[dict, Checker]:
    checker = Checker(workload)
    passes = run_passes(seconds, MIN_PASSES, lambda: workload.run_pass(NullTracer()))
    for p in passes:
        checker.add_pass(p, "timed")
    maxrss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    checker.check_pins()
    checker.replay()
    setups = setup_seconds(workload)
    values = end_to_end_values(passes, setups, maxrss_kb)
    factors = [scaled(p)[0] / p.wall_s for p in passes]
    cells = sum(len(p.cell_ms) for p in passes)
    host = "host median {:.4g} s, speed factor median {:.3f}".format
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; "
        + host(statistics.median(s for s, _ in setups), statistics.median(f for _, f in setups)),
        "wall_s": f"median of {len(passes)} passes; "
        + host(statistics.median(p.wall_s for p in passes), statistics.median(factors)),
        "cpu_s": f"median of {len(passes)} passes, self + children; "
        + host(statistics.median(p.cpu_s for p in passes), statistics.median(factors)),
        "cell_ms_p50": f"n={cells} cells",
        "cell_ms_p75": f"n={cells} cells",
    }
    return emit("end_to_end", values, notes, declared), checker


def per_layer_values(rounds: list, workers: int) -> dict[str, float]:
    """Per-layer metrics from ``(untraced, twin, traced, tracer)`` rounds.

    Layer times are self times in ms per traced cell; counts are those
    of one pass; boundary times are medians over the untraced passes.
    """
    layer_s: dict[str, float] = {}
    cells = cell_s = 0.0
    for _, _, _, tracer in rounds:
        for name, own in tracer.layer_seconds().items():
            layer_s[name] = layer_s.get(name, 0.0) + own
        cell_spans = [s for s in tracer.spans if s.name == CELL]
        cells += len(cell_spans)
        cell_s += sum(s.end - s.start for s in cell_spans)
    if not cells:
        raise RuntimeError("no traced cell")

    values: dict[str, float] = {}
    for metric, names in LAYER_SPANS.items():
        values[metric] = sum(layer_s.get(n, 0.0) for n in names) / cells * 1e3
    values["executor.cell_ms"] = cell_s / cells * 1e3
    values["trace.accounted_pct"] = 100.0 * (1.0 - layer_s[CELL] / cell_s)
    engine_s = sum(
        layer_s.get(n, 0.0)
        for n in ("core.engine", "core.engine_sync", "core.engine_async", "faults.run")
    )
    untraced, _, traced, tracer = rounds[-1]
    counts = {**untraced.counts, **traced.counts}
    values["core.engine_requests_per_s"] = (
        counts["core.requests"] * len(rounds) / engine_s if engine_s else 0.0
    )
    values["workloads.requests"] = tracer.counts.get(
        "workloads.schedule", counts.get("workloads.requests", 0)
    )
    for name in LAYER_COUNTS:
        values[name] = counts.get(name, 0)
    for metric, name in BOUNDARY_MS.items():
        values[metric] = statistics.median(u.boundaries.get(name, 0.0) for u, *_ in rounds) * 1e3
    run_s = [u.boundaries.get("orchestrator.run", 0.0) for u, *_ in rounds]
    child_cpu = [u.boundaries.get("orchestrator.child_cpu", 0.0) for u, *_ in rounds]
    values["orchestrator.run_s"] = statistics.median(run_s)
    values["orchestrator.child_cpu_s"] = statistics.median(child_cpu)
    values["orchestrator.busy_ratio"] = statistics.median(
        c / (workers * r) if r else 0.0 for c, r in zip(child_cpu, run_s)
    )
    untraced_wall = statistics.median(twin.wall_s for _, twin, _, _ in rounds)
    traced_wall = statistics.median(t.wall_s for _, _, t, _ in rounds)
    values["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    return values


def per_layer(workload: suite.Workload, seconds: float, declared: dict) -> tuple[dict, Checker]:
    checker = Checker(workload)

    def one_round():
        untraced = workload.run_pass(NullTracer())
        twin = workload.untraced_twin(untraced)
        tracer = Tracer()
        traced = workload.traced_pass(tracer)
        return untraced, twin, traced, tracer

    rounds = run_passes(seconds, MIN_TRACED_ROUNDS, one_round)
    for untraced, twin, traced, tracer in rounds:
        checker.add_pass(untraced, "untraced")
        if twin is not untraced:
            checker.add_pass(twin, "untraced inline")
        checker.add_pass(traced, "traced")
        for problem in tracer.check():
            print(f"perfbench: trace: {problem}", file=sys.stderr)
            checker.failed += 1
    checker.check_pins()
    checker.replay()
    values = per_layer_values(rounds, workload.workers())
    cells = sum(len(traced.cell_ms) for _, _, traced, _ in rounds)
    notes = {
        "trace.overhead_pct": f"median of {len(rounds)} traced vs untraced passes",
        "executor.cell_ms": f"mean over {cells} traced cells",
    }
    return emit("per_layer", values, notes, declared), checker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = load_declared()

    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        workload, _ = suite.expand(args.workload, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        metrics, checker = measure(workload, args.seconds, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run still uses it
            pass
    failed = min(checker.failed, checker.attempted)
    print(f"checked: {checker.attempted} attempted, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
