"""Queuing requests and request schedules.

Following §3.1 of the paper, a queuing request is an ordered pair
``(v, t)``: the node where it is issued and the issue time.  The requests of
a schedule are canonically indexed in non-decreasing time order (ties broken
arbitrarily but deterministically — the index is "just a convenient way for
indexing", never used by the algorithm).

The **virtual root request** ``r_0 = (root, 0)`` represents the initial
queue tail held by the root; it carries the reserved id
:data:`ROOT_RID` and is the start of every queuing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ScheduleError

__all__ = ["ROOT_RID", "NO_RID", "Request", "RequestSchedule"]

#: Reserved id of the virtual root request (start of the queue).
ROOT_RID = -1
#: Reserved id meaning "no request" (the paper's ⊥ for ``id(v)``).
NO_RID = -2


@dataclass(frozen=True, slots=True)
class Request:
    """One queuing request ``(v, t)`` with its canonical id.

    ``rid`` is the request's index in its schedule's canonical order
    (0-based); the virtual root request uses :data:`ROOT_RID` instead.
    """

    node: int
    time: float
    rid: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ScheduleError(f"request time must be >= 0, got {self.time}")


class RequestSchedule:
    """An immutable, canonically ordered set of queuing requests.

    Stored as two columns in canonical order — issue ``times`` and issuing
    ``nodes`` — with the rid as the index.  :class:`Request` objects are
    only built on the first ``__iter__``/``__getitem__``/:meth:`by_rid`
    and cached, so the engines, which read the columns, never pay for them.
    """

    __slots__ = ("_times", "_nodes", "_lo", "_hi", "_requests")

    def __init__(self, pairs: Iterable[tuple[int, float]]) -> None:
        """Build from ``(node, time)`` pairs.

        Requests are sorted by ``(time, insertion order)`` — the paper's
        non-decreasing-time canonical indexing — and assigned ids
        ``0..len-1`` in that order.
        """
        pairs = list(pairs)
        self._set_columns([v for v, _ in pairs], [t for _, t in pairs])

    @classmethod
    def from_columns(cls, nodes, times) -> "RequestSchedule":
        """Build from parallel ``nodes``/``times`` columns (lists or arrays).

        Same canonical order as the pairs constructor: a stable sort on
        time, so ties keep their column order.
        """
        schedule = cls.__new__(cls)
        schedule._set_columns(nodes, times)
        return schedule

    def _set_columns(self, nodes, times) -> None:
        t = np.asarray(times, dtype=np.float64)
        v = np.asarray(nodes, dtype=np.int64)
        if t.shape != v.shape or t.ndim != 1:
            raise ScheduleError(
                f"nodes and times must be equal-length columns, got shapes "
                f"{v.shape} and {t.shape}"
            )
        order = np.argsort(t, kind="stable")
        t = t[order]
        v = v[order]
        if t.size:
            # Sorted, so the first time is the smallest; NaN sorts last.
            if t[0] < 0:
                raise ScheduleError(f"request time must be >= 0, got {float(t[0])}")
            if np.isnan(t[-1]):
                raise ScheduleError("request time must be a number, got nan")
            self._lo = int(v.min())
            self._hi = int(v.max())
        else:
            self._lo = self._hi = 0
        self._times: list[float] = t.tolist()
        self._nodes: list[int] = v.tolist()
        self._requests: tuple[Request, ...] | None = None

    # ------------------------------------------------------------------
    def _request_tuple(self) -> tuple[Request, ...]:
        requests = self._requests
        if requests is None:
            requests = self._requests = tuple(
                map(Request, self._nodes, self._times, range(len(self._times)))
            )
        return requests

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._request_tuple())

    def __getitem__(self, rid: int) -> Request:
        return self._request_tuple()[rid]

    def by_rid(self, rid: int) -> Request:
        """Request with the given canonical id.

        Unlike indexing, negative ids (:data:`ROOT_RID`, :data:`NO_RID`)
        never wrap around to the end of the schedule.
        """
        if not 0 <= rid < len(self._times):
            raise ScheduleError(f"no request with rid {rid}")
        return self._request_tuple()[rid]

    @property
    def nodes(self) -> list[int]:
        """Issuing node per request, in canonical order (a fresh list)."""
        return self._nodes.copy()

    @property
    def times(self) -> list[float]:
        """Issue time per request, in canonical order (a fresh list)."""
        return self._times.copy()

    def max_time(self) -> float:
        """Largest issue time ``t_|R|`` (0 for an empty schedule)."""
        return self._times[-1] if self._times else 0.0

    def validate_nodes(self, num_nodes: int) -> None:
        """Raise :class:`ScheduleError` if any request names a bad node."""
        if not self._times or (0 <= self._lo and self._hi < num_nodes):
            return
        for rid, v in enumerate(self._nodes):
            if not 0 <= v < num_nodes:
                raise ScheduleError(
                    f"request {rid} at node {v} outside [0, {num_nodes})"
                )

    def shifted(self, rids: Sequence[int], delta: float) -> "RequestSchedule":
        """New schedule with the given requests' times shifted by ``delta``.

        Used by the Lemma 3.11 transformation.  Shifting must keep all
        times non-negative.
        """
        rid_set = set(rids)
        times = [
            t + delta if rid in rid_set else t for rid, t in enumerate(self._times)
        ]
        return RequestSchedule.from_columns(self._nodes, times)

    def restricted_to_times(self, lo: float, hi: float) -> list[Request]:
        """Requests with issue time in ``[lo, hi]`` (canonical order)."""
        return [r for r in self._request_tuple() if lo <= r.time <= hi]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RequestSchedule(len={len(self)}, span=[0, {self.max_time()}])"
