"""Run results and total-order verification for queuing protocols.

Every protocol runner in this library produces a :class:`RunResult`:
per-request completions (stored as columns) plus the reconstructed
queuing order.  The
verification helpers check the defining property of distributed queuing —
the completions describe one total order containing every request exactly
once, starting at the virtual root request — and are used pervasively by
the integration tests.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from repro.core.requests import ROOT_RID, RequestSchedule
from repro.errors import ProtocolError

__all__ = ["CompletionRecord", "RunResult", "verify_total_order"]


class CompletionRecord(NamedTuple):
    """Completion of one request (the paper's Definition 3.2 event).

    ``rid`` was queued behind ``predecessor``; ``informed_node`` (the
    issuer of the predecessor) learned this at ``completed_at``; the
    request's ``queue`` message traversed ``hops`` tree links.

    A named tuple rather than a dataclass: protocol runs mint one record
    per request on their hot path, and tuple construction is several
    times cheaper than a frozen dataclass ``__init__``.
    """

    rid: int
    predecessor: int
    informed_node: int
    completed_at: float
    hops: int


class RunResult:
    """Outcome of running a queuing protocol on a request schedule.

    Completions are stored as rid-indexed columns (predecessor, informed
    node, completion time, hops; ``None`` where a request never completed)
    plus the rids in completion order.  The flat engines hand over their
    raw completion rows through :meth:`from_rows`, the message engines
    :meth:`record` one completion at a time, and the row summaries
    (:meth:`latencies`, :attr:`total_latency`, :attr:`mean_hops`,
    :meth:`local_find_fraction`) read the columns directly.
    :attr:`completions` is a read-only ``rid -> CompletionRecord`` mapping
    in completion order, built on first access for callers that want
    records.
    """

    __slots__ = (
        "schedule",
        "makespan",
        "network_stats",
        "wall_seconds",
        "_order",
        "_pred",
        "_node",
        "_when",
        "_hops",
        "_records",
    )

    def __init__(self, schedule: RequestSchedule) -> None:
        self.schedule = schedule
        #: Simulation time when the last event fired.
        self.makespan = 0.0
        #: Aggregate network counters (messages, hops), protocol-specific.
        self.network_stats: dict[str, int] = {}
        #: Wall-clock seconds spent simulating (for throughput reporting).
        #: Excluded from equality: wall clock is measurement noise, and two
        #: bit-identical runs must compare equal however long they took.
        self.wall_seconds = 0.0
        m = len(schedule)
        self._order: list[int] = []
        self._pred: list[int | None] = [None] * m
        self._node: list[int | None] = [None] * m
        self._when: list[float | None] = [None] * m
        self._hops: list[int | None] = [None] * m
        self._records: dict[int, CompletionRecord] | None = None

    @classmethod
    def from_rows(
        cls,
        schedule: RequestSchedule,
        rows: list[tuple[int, int, int, float, int]],
    ) -> "RunResult":
        """Result holding raw ``(rid, pred, node, when, hops)`` rows.

        ``rows`` are in completion order; a rid completing twice raises
        :class:`ProtocolError`.
        """
        result = cls(schedule)
        pred, node, when, hops = result._pred, result._node, result._when, result._hops
        for rid, p, v, w, h in rows:
            pred[rid] = p
            node[rid] = v
            when[rid] = w
            hops[rid] = h
        if len(when) - when.count(None) != len(rows):
            raise ProtocolError("a request completed twice")
        result._order = [row[0] for row in rows]
        return result

    # ------------------------------------------------------------------
    def record(self, rec: CompletionRecord) -> None:
        """Store one completion; duplicates indicate a protocol bug."""
        rid = rec.rid
        if not 0 <= rid < len(self._when):
            raise ProtocolError(f"completion for unknown request {rid}")
        if self._when[rid] is not None:
            raise ProtocolError(f"request {rid} completed twice")
        self._pred[rid] = rec.predecessor
        self._node[rid] = rec.informed_node
        self._when[rid] = rec.completed_at
        self._hops[rid] = rec.hops
        self._order.append(rid)
        if self._records is not None:
            self._records[rid] = rec

    @property
    def completions(self) -> Mapping[int, CompletionRecord]:
        """Read-only ``rid -> CompletionRecord`` mapping, in completion order."""
        if self._records is None:
            self._records = {
                rid: CompletionRecord(
                    rid, self._pred[rid], self._node[rid], self._when[rid], self._hops[rid]
                )
                for rid in self._order
            }
        return MappingProxyType(self._records)

    def __eq__(self, other: object) -> bool:
        # Completions compare rid by rid: the order they completed in and
        # the wall clock are not part of a run's outcome.
        if not isinstance(other, RunResult):
            return NotImplemented
        return (
            self.schedule == other.schedule
            and self._when == other._when
            and self._pred == other._pred
            and self._node == other._node
            and self._hops == other._hops
            and self.makespan == other.makespan
            and self.network_stats == other.network_stats
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunResult(requests={len(self.schedule)}, "
            f"completed={len(self._order)}, makespan={self.makespan})"
        )

    @property
    def order(self) -> list[int]:
        """Queuing order as a list of rids (root request excluded).

        Reconstructed by following the successor chain from the virtual
        root request.  Raises :class:`ProtocolError` if the completions do
        not form a single chain over all requests.
        """
        succ: dict[int, int] = {}
        pred = self._pred
        for rid in self._order:
            p = pred[rid]
            if p in succ:
                raise ProtocolError(
                    f"requests {succ[p]} and {rid} both claim predecessor {p}"
                )
            succ[p] = rid
        chain: list[int] = []
        cur = ROOT_RID
        while cur in succ:
            cur = succ[cur]
            chain.append(cur)
        if len(chain) != len(self._order):
            raise ProtocolError(
                f"successor chain covers {len(chain)} of "
                f"{len(self._order)} completed requests"
            )
        return chain

    # ------------------------------------------------------------------
    def latency(self, rid: int) -> float:
        """Latency of one request (Definition 3.2)."""
        when = self._when[rid] if 0 <= rid < len(self._when) else None
        if when is None:
            raise KeyError(rid)
        return when - self.schedule.by_rid(rid).time

    def latencies(self) -> list[float]:
        """Latency of every completed request, in completion order."""
        when = self._when
        times = self.schedule.times
        return [when[rid] - times[rid] for rid in self._order]

    @property
    def total_latency(self) -> float:
        """Total cost = sum of all latencies (Definition 3.3)."""
        return sum(self.latencies())

    @property
    def total_hops(self) -> int:
        """Total queue-message link traversals across all requests."""
        return sum(map(self._hops.__getitem__, self._order))

    @property
    def mean_hops(self) -> float:
        """Average hops per request (the Fig. 11 metric)."""
        if not self._order:
            return 0.0
        return self.total_hops / len(self._order)

    def local_find_fraction(self) -> float:
        """Fraction of requests completed with zero messages."""
        if not self._order:
            return 0.0
        zero = list(map(self._hops.__getitem__, self._order)).count(0)
        return zero / len(self._order)


def verify_total_order(result: RunResult) -> list[int]:
    """Check the run queued every request exactly once; return the order.

    Raises :class:`ProtocolError` on any violation:
    * some request never completed,
    * a request completed twice (caught at record time),
    * the successor relation is not a single chain from the root request.
    """
    missing = [rid for rid, when in enumerate(result._when) if when is None]
    if missing:
        raise ProtocolError(f"requests never completed: {missing[:10]}")
    order = result.order  # raises on structural violations
    if sorted(order) != list(range(len(result.schedule))):
        raise ProtocolError("queuing order does not cover the schedule exactly")
    return order
