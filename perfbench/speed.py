"""Host speed probes: a fixed loop timed between the benchmark's cells.

On a shared host the speed of the machine changes by up to 2x within
seconds, with CPU time tracking wall time, so raw host seconds of one
commit do not repeat from run to run.  The benchmark times this loop
around every cell and every set-up and reports its times scaled to a host
on which the loop takes ``run.REFERENCE_PROBE_S``.  The loop runs no
``repro`` code and imports nothing of the repository.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

#: Iterations of :func:`speed_probe`, a few ms of host time.
PROBE_ITERATIONS = 3000


def speed_probe() -> tuple[float, float]:
    """Host and CPU seconds of a fixed loop shaped like an engine drain.

    It runs no ``repro`` code, so its time tells how fast the host is at
    this moment and nothing about the program.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rng = random.Random(1)
    heap: list[tuple[float, int]] = []
    counts: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        heapq.heappush(heap, (rng.random(), i))
        counts[i % 977] = counts.get(i % 977, 0) + i
        if len(heap) > 500:
            heapq.heappop(heap)
    return time.perf_counter() - wall0, time.process_time() - cpu0


class SpeedLog:
    """Speed probes around the cells of a pass.

    One probe runs before the first cell and one after every cell, so
    each completed cell is paired with the mean host time of the two
    probes either side of it (``cell_probe_s``).  On a shared host the
    speed changes within seconds, so this follows it cell by cell.  The
    probes' own time is taken out of the pass's times.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.probe_cpu_s = 0.0
        self.cell_ms: list[float] = []
        self.cell_probe_s: list[float] = []

    @property
    def probe_s(self) -> float:
        return sum(self.probes)

    def probe(self) -> None:
        self.add_probe(*speed_probe())

    def add_probe(self, wall: float, cpu: float) -> None:
        self.probes.append(wall)
        self.probe_cpu_s += cpu

    def add_cell(self, ms: float) -> None:
        """A completed cell of ``ms`` host ms, run between the last two probes."""
        self.cell_ms.append(ms)
        self.cell_probe_s.append((self.probes[-2] + self.probes[-1]) / 2)

    def after_cell(self, ms: float | None) -> None:
        """Probe after a cell; ``ms`` is ``None`` for a cell that failed."""
        self.probe()
        if ms is not None:
            self.add_cell(ms)

    def extend(self, other: SpeedLog) -> None:
        self.probes += other.probes
        self.probe_cpu_s += other.probe_cpu_s
        self.cell_ms += other.cell_ms
        self.cell_probe_s += other.cell_probe_s


def median_probe_s(repeats: int) -> float:
    """Median host seconds of ``repeats`` probes, now."""
    return statistics.median(speed_probe()[0] for _ in range(repeats))
