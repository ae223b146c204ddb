"""In-memory spans for the traced benchmark run.

A span records a name, a start and an end (``time.perf_counter``), the
index of its parent span and the id of the cell (or job) it belongs to.
Spans are opened from the benchmark's own files only: around the calls
it makes itself, and by timing wrappers swapped in for the public names
the sweep path calls through (:func:`instrument_sweep`).  The program
under test is never edited.

A layer's *self time* is its span's duration minus the time covered by
its child spans.  Within one cell the self times of all its spans add up
to the duration of the cell span; :meth:`Tracer.check` verifies that and
that every child lies inside its parent.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Name of the span that encloses one cell (or one thm321 job).
CELL = "executor.cell"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cell_id: str | None


class NullTracer:
    """Tracing off: every span is a no-op context."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()

    def cell(self, cell_id: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()


class Tracer:
    """Spans and boundary counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._cell: str | None = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self._cell)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def cell(self, cell_id: str) -> Iterator[None]:
        self._cell = cell_id
        try:
            with self.span(CELL):
                yield
        finally:
            self._cell = None

    def wrap(
        self, name: str, fn: Callable, count: Callable[[Any], int] | None = None
    ) -> Callable:
        """``fn`` inside a span; ``count(result)`` adds to ``counts[name]``."""

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts[name] += count(result)
            return result

        return timed

    def self_times(self) -> list[float]:
        """Self time of each span, in seconds, in recording order."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def layer_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            out[s.name] += own
        return dict(out)

    def check(self) -> list[str]:
        """Integrity problems: escaped children, unbalanced cell sums."""
        problems: list[str] = []
        for i, s in enumerate(self.spans):
            if s.end < s.start:
                problems.append(f"span {i} ({s.name}) never closed")
            if s.parent is not None:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    problems.append(f"span {i} ({s.name}) outside its parent {p.name}")
        per_cell: dict[str, float] = defaultdict(float)
        cell_span: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            if s.cell_id is None:
                continue
            per_cell[s.cell_id] += own
            if s.name == CELL:
                cell_span[s.cell_id] = s.end - s.start
        for cid, total in per_cell.items():
            if abs(total - cell_span.get(cid, -1.0)) > 1e-6:
                problems.append(
                    f"{cid}: layer self times sum to {total:.6f} s, "
                    f"cell span is {cell_span.get(cid)}"
                )
        return problems


#: Public names in ``repro.sweep.families`` that the cell families call
#: through, and the layer span each is timed as.
_FAMILY_CALLS = {
    "build_graph": "graphs.build",
    "build_tree": "spanning.build",
    "build_schedule": "workloads.schedule",
    "run_arrow_faulted": "faults.run",
    "latency_columns": "stats.columns",
}
#: Engine factories: the run function they return is timed as the engine.
_ENGINE_FACTORIES = ("arrow_runner", "closed_loop_runner")


@contextlib.contextmanager
def instrument_sweep(tracer: Tracer) -> Iterator[None]:
    """Swap timing wrappers into the sweep path for the ``with`` body."""
    import repro.sweep.families as families
    from repro.sweep import family_names, get_family, register_family

    saved = {
        attr: getattr(families, attr) for attr in (*_FAMILY_CALLS, *_ENGINE_FACTORIES)
    }
    registered = [get_family(name) for name in family_names()]

    def timed_factory(factory: Callable) -> Callable:
        @functools.wraps(factory)
        def resolve(*args: Any, **kwargs: Any) -> Callable:
            return tracer.wrap("core.engine", factory(*args, **kwargs))

        return resolve

    try:
        for attr, name in _FAMILY_CALLS.items():
            count = len if attr == "build_schedule" else None
            setattr(families, attr, tracer.wrap(name, saved[attr], count))
        for attr in _ENGINE_FACTORIES:
            setattr(families, attr, timed_factory(saved[attr]))
        for family in registered:
            row = tracer.wrap("executor.row", family.to_row)
            register_family(dataclasses.replace(family, to_row=row), replace=True)
        yield
    finally:
        for attr, fn in saved.items():
            setattr(families, attr, fn)
        for family in registered:
            register_family(family, replace=True)
