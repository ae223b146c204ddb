"""The four benchmark workloads: their inputs, one pass each, and checks.

Every workload derives its inputs from the ``--seed`` it is given and
runs only ``engine="fast"``; the message-level engine is the oracle a
small sample of cells is replayed on (:meth:`Workload.replay`).  A pass
always starts from fresh state: a new directory, no resume, a new
results store.  See README.md in this directory for why each workload
exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import repro.sweep.executor as executor
from repro.analysis import measure_competitive_ratio
from repro.core.fast_arrow import arrow_runner
from repro.graphs.generators import path_graph
from repro.net.latency import UniformLatency
from repro.results import ResultsStore
from repro.spanning.tree import SpanningTree
from repro.sweep import (
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    diff_rows,
    dumps_row,
    execute_cell,
    family_names,
    merge_shards,
    orchestrate_sweep,
    shard_path,
)
from repro.workloads.schedules import random_times

from spans import NullTracer, Tracer, instrument_sweep
from speed import SpeedLog, speed_probe

#: The seed the pinned row hashes in ``pins.json`` were taken at.
DEFAULT_SEED = 0
#: Cells (or jobs) replayed on the message-level engine per run.
REPLAY_SAMPLE = 3
#: Master seeds of one workload seed are ``seed * SEED_STRIDE + k``.
SEED_STRIDE = 1000


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """What one pass produced and how long it took."""

    #: Host and CPU seconds of the pass, less its speed probes.
    wall_s: float
    cpu_s: float
    #: Host ms of each cell (or job) that completed.
    cell_ms: list[float]
    #: Cell (or job) id -> canonical output line; failed cells are absent.
    lines: dict[str, str]
    failed: int
    attempted: int
    #: Boundary timings in the parent (sharded workload only), seconds.
    boundaries: dict[str, float] = field(default_factory=dict)
    #: Counts taken at layer boundaries (requests, messages, bytes...).
    counts: dict[str, int] = field(default_factory=dict)
    #: Host seconds of the speed probes around each cell of ``cell_ms``.
    cell_probe_s: list[float] = field(default_factory=list)


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _row_counts(lines) -> dict[str, int]:
    """Simulated work of a pass, summed from its rows (must repeat exactly)."""
    out = {
        "core.requests": 0,
        "core.messages": 0,
        "core.hops": 0,
        "faults.requests_lost": 0,
        "faults.repairs_run": 0,
    }
    for line in lines:
        row = json.loads(line)
        out["core.requests"] += row["requests"]
        out["core.messages"] += row["messages_sent"]
        out["core.hops"] += row["hops_total"]
        out["faults.requests_lost"] += row.get("requests_lost", 0)
        out["faults.repairs_run"] += row.get("repairs_run", 0)
    return out


def _dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


class Workload:
    """One named set of inputs; subclasses define a pass over them."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def workers(self) -> int:
        """Worker processes a pass uses."""
        return 1

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)

    def units(self) -> list[Any]:
        """The cells (or jobs) of one pass, in order."""
        raise NotImplementedError

    def run_pass(self, tracer: Tracer | NullTracer) -> PassResult:
        raise NotImplementedError

    def traced_pass(self, tracer: Tracer) -> PassResult:
        """The pass whose spans give the per-layer split."""
        return self.run_pass(tracer)

    def untraced_twin(self, untraced: PassResult) -> PassResult:
        """The untraced pass :meth:`traced_pass` is compared with."""
        return untraced

    def replay(self, reference: dict[str, str]) -> tuple[int, int]:
        """Replay a seeded sample on the message engine: (attempted, failed)."""
        raise NotImplementedError

    def sample(self) -> list[Any]:
        units = self.units()
        rng = random.Random(f"replay/{self.name}/{self.seed}")
        return rng.sample(units, min(REPLAY_SAMPLE, len(units)))


class SweepWorkload(Workload):
    """A grid whose cells run inline through ``execute_cell`` into JSONL."""

    def spec(self) -> SweepSpec:
        raise NotImplementedError

    def units(self) -> list[Any]:
        return self.spec().cells()

    def inline_pass(self, tracer: Tracer | NullTracer) -> PassResult:
        cells = self.units()
        work = self.fresh_dir()
        try:
            path = os.path.join(work, "rows.jsonl")
            speed = SpeedLog()
            lines: dict[str, str] = {}
            failed = 0
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            speed.probe()
            with open(path, "w", encoding="utf-8") as fh:
                for cell in cells:
                    start = time.perf_counter()
                    ms = None
                    try:
                        with tracer.cell(cell.cell_id):
                            row = execute_cell(cell)
                            with tracer.span("persist.write"):
                                line = dumps_row(row)
                                fh.write(line + "\n")
                                fh.flush()
                        ms = (time.perf_counter() - start) * 1e3
                        lines[cell.cell_id] = line
                    except Exception:  # a raising cell is a failed cell
                        _report_failure(f"cell {cell.cell_id}")
                        failed += 1
                    speed.after_cell(ms)
            wall = time.perf_counter() - wall0 - speed.probe_s
            cpu = cpu_seconds() - cpu0 - speed.probe_cpu_s
            return PassResult(
                wall, cpu, speed.cell_ms, lines, failed, len(cells),
                counts={"persist.bytes": os.path.getsize(path), **_row_counts(lines.values())},
                cell_probe_s=speed.cell_probe_s,
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def run_pass(self, tracer: Tracer | NullTracer) -> PassResult:
        return self.inline_pass(tracer)

    def traced_pass(self, tracer: Tracer) -> PassResult:
        with instrument_sweep(tracer):
            return self.inline_pass(tracer)

    def replay(self, reference: dict[str, str]) -> tuple[int, int]:
        sample = self.sample()
        work = self.fresh_dir()
        try:
            fast_path = os.path.join(work, "fast.jsonl")
            oracle_path = os.path.join(work, "message.jsonl")
            failed = 0
            with open(fast_path, "w", encoding="utf-8") as fast, open(
                oracle_path, "w", encoding="utf-8"
            ) as oracle:
                for cell in sample:
                    if cell.cell_id not in reference:
                        failed += 1
                        continue
                    try:
                        row = execute_cell(dataclasses.replace(cell, engine="message"))
                    except Exception:
                        _report_failure(f"message replay of {cell.cell_id}")
                        failed += 1
                        continue
                    fast.write(reference[cell.cell_id] + "\n")
                    oracle.write(dumps_row(row) + "\n")
            _, problems = diff_rows(fast_path, oracle_path, ignore=("engine",))
            for p in problems:
                print(f"perfbench: message replay: {p}", file=sys.stderr)
            return len(sample), failed + len(problems)
        finally:
            shutil.rmtree(work, ignore_errors=True)


class Fig11Open(SweepWorkload):
    name = "fig11_open"

    def spec(self) -> SweepSpec:
        return SweepSpec(
            name="perfbench-fig11",
            graphs=tuple(GraphSpec.of("complete", n=n) for n in (128, 192, 256)),
            trees=("binary",),
            schedules=(ScheduleSpec.of("poisson", per_node=40, rate_per_node=1.0),),
            seeds=tuple(self.seed * SEED_STRIDE + k for k in range(14)),
            engine="fast",
            service_time=0.1,
        )


class Fig10Closed(SweepWorkload):
    name = "fig10_closed"

    def spec(self) -> SweepSpec:
        loop = {"requests_per_proc": 150, "think_time": 0.1}
        return SweepSpec(
            name="perfbench-fig10",
            graphs=tuple(GraphSpec.of("complete", n=n) for n in (32, 48, 64)),
            trees=("binary",),
            schedules=(
                ScheduleSpec.of("closed_arrow", **loop),
                ScheduleSpec.of("closed_centralized", **loop),
            ),
            seeds=tuple(self.seed * SEED_STRIDE + k for k in range(7)),
            engine="fast",
            service_time=0.1,
        )


class FaultedSharded(SweepWorkload):
    """Orchestrated shards -> merge -> store ingest -> store read back."""

    name = "faulted_sharded"
    #: The shards run one at a time (:meth:`Workload.workers`): two busy
    #: processes on a shared host measure the scheduler more than the
    #: program.
    shards = 4
    #: The orchestrator sleeps this long between liveness checks, so a
    #: pass's wall time moves in steps of it; its default is 0.2 s.
    poll_interval = 0.02

    def untraced_twin(self, untraced: PassResult) -> PassResult:
        return self.inline_pass(NullTracer())

    def spec(self) -> SweepSpec:
        return SweepSpec(
            name="perfbench-faulted",
            graphs=(GraphSpec.of("grid", rows=16, cols=16), GraphSpec.of("hypercube", dim=8)),
            trees=("bfs",),
            schedules=(ScheduleSpec.of("poisson", per_node=20, rate_per_node=0.5),),
            seeds=tuple(self.seed * SEED_STRIDE + k for k in range(5)),
            engine="fast",
            faults=("", "crash@5:3", "loss:0.02", "link@0-1:2-6"),
            monitors=True,
        )

    def run_pass(self, tracer: Tracer | NullTracer) -> PassResult:
        """One orchestrated pass; its stages are timed at their boundaries.

        The per-cell layer split of this grid comes from
        :meth:`inline_pass`, because here the cells run in worker
        processes; ``tracer`` is not used.
        """
        spec = self.spec()
        n = spec.num_cells()
        work = self.fresh_dir()
        boundaries: dict[str, float] = {}

        @contextlib.contextmanager
        def boundary(name: str):
            start = time.perf_counter()
            yield
            boundaries[name] = time.perf_counter() - start

        try:
            out = os.path.join(work, "grid.jsonl")
            timed_execute = _worker_cell_timer(work)
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            try:
                kids0 = children_cpu_seconds()
                with boundary("orchestrator.run"):
                    executor.execute_cell = timed_execute
                    try:
                        orchestrate_sweep(
                            spec, out, shards=self.shards, workers=self.workers(),
                            resume=False, merge=False, poll_interval=self.poll_interval,
                        )
                    finally:
                        executor.execute_cell = execute_cell
                speed = _read_worker_speed(work)
                boundaries["orchestrator.run"] -= speed.probe_s
                boundaries["orchestrator.child_cpu"] = (
                    children_cpu_seconds() - kids0 - speed.probe_cpu_s
                )
                with boundary("persist.merge"):
                    shard_files = [shard_path(out, i, self.shards) for i in range(self.shards)]
                    _, problems = merge_shards(shard_files, out, expect_cells=n)
                if problems:
                    raise RuntimeError(f"merge problems: {problems[:3]}")
                store = ResultsStore(os.path.join(work, "store"))
                with boundary("store.ingest"):
                    report = store.ingest(spec, out)
                with boundary("store.read"):
                    stored = [dumps_row(row) for row in store.rows(report.spec_hash)]
                    sketch = store.grid_sketch(report.spec_hash)
            except Exception:
                _report_failure(f"{self.name} pass")
                return PassResult(time.perf_counter() - wall0, 0.0, [], {}, n, n)
            wall = time.perf_counter() - wall0 - speed.probe_s
            cpu = cpu_seconds() - cpu0 - speed.probe_cpu_s
            with open(out, "r", encoding="utf-8") as fh:
                merged = fh.read().splitlines()
            rows = [json.loads(line) for line in merged]
            lines = {r["cell_id"]: line for r, line in zip(rows, merged)}
            failed = n - len(lines)
            answered = sum(r["requests"] - r.get("requests_lost", 0) for r in rows)
            if not report.complete or stored != merged or sketch.count != answered:
                print(
                    f"perfbench: {self.name}: store read back disagrees with the "
                    f"merged rows (complete={report.complete}, "
                    f"sketch count {sketch.count} vs {answered} answered)",
                    file=sys.stderr,
                )
                failed = n
            return PassResult(
                wall, cpu, speed.cell_ms, lines, failed, n,
                boundaries=boundaries,
                counts={
                    "persist.bytes": os.path.getsize(out),
                    "store.bytes": _dir_bytes(store.root),
                    **_row_counts(merged),
                },
                cell_probe_s=speed.cell_probe_s,
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)


def _worker_cell_timer(work: str) -> Callable:
    """An ``execute_cell`` that logs its host ms and speed probes per process.

    Installed as ``repro.sweep.executor.execute_cell`` around
    ``orchestrate_sweep``: the forked shard workers inherit it, so each
    cell is timed where it runs, with a :class:`SpeedLog` probe before a
    worker's first cell and after each cell.  One short append per cell.
    """

    def timed(cell):
        path = os.path.join(work, f"cells.{os.getpid()}")
        log = [] if os.path.exists(path) else ["probe %r %r" % speed_probe()]
        start = time.perf_counter()
        row = execute_cell(cell)
        ms = (time.perf_counter() - start) * 1e3
        log += ["probe %r %r" % speed_probe(), f"cell {ms!r}"]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(log) + "\n")
        return row

    return timed


def _read_worker_speed(work: str) -> SpeedLog:
    """The workers' logs of one orchestrated pass, as one :class:`SpeedLog`."""
    out = SpeedLog()
    for name in sorted(os.listdir(work)):
        if name.startswith("cells."):
            speed = SpeedLog()
            with open(os.path.join(work, name), "r", encoding="utf-8") as fh:
                for line in fh:
                    kind, *values = line.split()
                    if kind == "probe":
                        speed.add_probe(float(values[0]), float(values[1]))
                    else:
                        speed.add_cell(float(values[0]))
            out.extend(speed)
    return out


@dataclass(frozen=True)
class Thm321Job:
    diameter: int
    seed: int

    @property
    def cell_id(self) -> str:
        return f"path(D={self.diameter})/s{self.seed}"


class Thm321Async(Workload):
    """Theorem 3.21 jobs: sync and async arrow runs plus the ratio bracket."""

    name = "thm321_async"
    diameters = (16, 32, 64, 128, 256)
    requests = 60
    delay_lo = 0.2

    def units(self) -> list[Thm321Job]:
        return [
            Thm321Job(d, self.seed * SEED_STRIDE + k)
            for d in self.diameters
            for k in range(12)
        ]

    def run_job(
        self, job: Thm321Job, engine: str, tracer: Tracer | NullTracer
    ) -> tuple[str, dict[str, int]]:
        """One job's canonical ``[sync, async, ratio]`` line and its counts."""
        n = job.diameter + 1
        with tracer.span("graphs.build"):
            graph = path_graph(n)
        with tracer.span("spanning.build"):
            tree = SpanningTree([max(0, i - 1) for i in range(n)], root=0)
        with tracer.span("workloads.schedule"):
            schedule = random_times(n, self.requests, horizon=float(job.diameter), seed=job.seed)
        runner = arrow_runner(engine)
        with tracer.span("core.engine_sync"):
            sync = runner(graph, tree, schedule)
        with tracer.span("core.engine_async"):
            asynch = runner(
                graph, tree, schedule,
                latency=UniformLatency(self.delay_lo, 1.0), seed=job.seed,
            )
        with tracer.span("analysis.ratio"):
            report = measure_competitive_ratio(
                graph, tree, schedule, simulate=True, exact_limit=10,
                engine=engine, arrow_cost=asynch.total_latency,
            )
        if not report.within_ceiling:
            raise AssertionError(
                f"{job.cell_id}: ratio {report.ratio_upper} above the "
                f"Theorem 3.19 ceiling {report.ceiling}"
            )
        line = json.dumps([sync.total_latency, asynch.total_latency, report.ratio_upper])
        counts = {
            "workloads.requests": len(schedule),
            "core.requests": 2 * len(schedule),
            "core.messages": sync.network_stats["messages_sent"]
            + asynch.network_stats["messages_sent"],
            "core.hops": sync.network_stats["hops_total"] + asynch.network_stats["hops_total"],
        }
        return line, counts

    def run_pass(self, tracer: Tracer | NullTracer) -> PassResult:
        jobs = self.units()
        speed = SpeedLog()
        lines: dict[str, str] = {}
        totals: dict[str, int] = {}
        failed = 0
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        speed.probe()
        for job in jobs:
            start = time.perf_counter()
            ms = None
            try:
                with tracer.cell(job.cell_id):
                    line, counts = self.run_job(job, "fast", tracer)
                ms = (time.perf_counter() - start) * 1e3
                lines[job.cell_id] = line
                for key, value in counts.items():
                    totals[key] = totals.get(key, 0) + value
            except Exception:
                _report_failure(f"job {job.cell_id}")
                failed += 1
            speed.after_cell(ms)
        wall = time.perf_counter() - wall0 - speed.probe_s
        cpu = cpu_seconds() - cpu0 - speed.probe_cpu_s
        return PassResult(
            wall, cpu, speed.cell_ms, lines, failed, len(jobs),
            counts=totals, cell_probe_s=speed.cell_probe_s,
        )

    def replay(self, reference: dict[str, str]) -> tuple[int, int]:
        sample = self.sample()
        failed = 0
        for job in sample:
            try:
                line, _ = self.run_job(job, "message", NullTracer())
            except Exception:
                _report_failure(f"message replay of {job.cell_id}")
                failed += 1
                continue
            if reference.get(job.cell_id) != line:
                print(
                    f"perfbench: message replay of {job.cell_id}: {line} "
                    f"!= fast {reference.get(job.cell_id)}",
                    file=sys.stderr,
                )
                failed += 1
        return len(sample), failed


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Fig11Open, Fig10Closed, FaultedSharded, Thm321Async)
}


def expand(name: str, seed: int, workdir: str) -> tuple[Workload, list[Any]]:
    """Set-up: bootstrap the cell-family registry and expand the inputs."""
    family_names()
    workload = WORKLOADS[name](seed, workdir)
    return workload, workload.units()
