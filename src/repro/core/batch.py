"""Numpy batch engine: vectorized arrow runs behind the bit-identity contract.

:class:`BatchArrowEngine` / :func:`run_arrow_batch` (open loop) and
:func:`closed_loop_arrow_batch` / :func:`closed_loop_centralized_batch`
(the §5 closed loops) produce results **bit-identical** to the fast
engines — and therefore to the message-level simulators — while moving
the per-event overheads that dominate large runs into numpy array
operations:

* **batched RNG draws** — stochastic latency models draw their raw
  samples in vectorized blocks from the same
  ``spawn_rng(seed, "network-latency")`` stream, replaying the scalar
  engines' draw order *exactly*: an array fill of numpy's ``Generator``
  consumes the underlying bitstream element-for-element like the same
  number of scalar calls, so handing out buffered raws in order is
  indistinguishable from sampling per message (a scalar
  ``Generator.uniform`` call costs ~1.5 µs; a buffered raw ~0.1 µs);
* **vectorized per-link delay tables** — deterministic models get their
  per-directed-tree-link delays built as numpy arrays in one shot
  instead of 2n scalar ``sample`` calls;
* **time-slab initiation draining** (open loop) — runs of schedule
  initiations that all fire before the next in-flight arrival are
  processed as one numpy slab: vectorized local-find detection and
  predecessor chaining, vectorized delay/FIFO-clamp arithmetic for the
  slab's sends, and a single ``heapify`` when the heap starts empty
  (the one-shot storm).  A slab is speculative — if a slab send's
  arrival lands *before* a later initiation in the slab, the slab is
  truncated at that initiation and the block stream is rewound so no
  RNG draw is consumed early.

Bit-identity holds because every vectorized step computes the *same*
IEEE-754 operations in the *same* order as the scalar engines: block
draws replay the stream, ``np.maximum``/elementwise multiplies match the
scalar expressions bit-for-bit, routed path delays keep the scalar
engines' left-fold summation, and slab truncation reproduces the
``init_time <= heap[0][0]`` gate event by event.  The three-way
differential suites (``tests/core/test_fast_arrow_differential.py``,
``tests/core/test_fast_closed_loop_parity.py``,
``tests/core/test_batch_engine.py``) enforce this instance by instance.

Latency models the module does not know (anything outside
:mod:`repro.net.latency`'s concrete classes, including subclasses that
override ``sample``) fall back to per-call ``sample`` in exact event
order — still bit-identical, just not batched.  The closed-loop
functions bind the *same* event-loop cores as the fast engine
(:mod:`repro.core.fast_closed_loop`), so their identity is by
construction; only the delay sources differ.
"""

from __future__ import annotations

import time as _wall
from heapq import heapify, heappop, heappush

import numpy as np

from repro.core.fast_arrow import _ARRIVE, _DISPATCH, _raise_livelock
from repro.core.fast_closed_loop import (
    _Router,
    _det_link_delays,
    _run_arrow_closed_loop,
    _run_centralized_closed_loop,
    _tree_link_weights,
)
from repro.core.queueing import RunResult
from repro.core.requests import NO_RID, ROOT_RID, RequestSchedule
from repro.errors import NetworkError, ProtocolError
from repro.graphs.graph import Graph
from repro.graphs.validation import require_spanning_subgraph
from repro.net.latency import (
    ExponentialCappedLatency,
    LatencyModel,
    ScaledWeightLatency,
    UniformLatency,
    UnitLatency,
    WeightLatency,
)
from repro.sim.rng import spawn_rng
from repro.spanning.tree import SpanningTree
from repro.workloads.closed_loop import ClosedLoopResult

__all__ = [
    "BatchArrowEngine",
    "run_arrow_batch",
    "closed_loop_arrow_batch",
    "closed_loop_centralized_batch",
]

#: Raw draws per block-stream refill.
_BLOCK = 4096

#: Minimum initiation-run length worth a vectorized slab (below this the
#: numpy fixed costs exceed the scalar loop's).
_SLAB_MIN = 64

#: Initial cap on a slab's candidate length.  Slabs are speculative, so an
#: unbounded candidate (e.g. the whole schedule while the heap is empty)
#: could vectorize arithmetic for thousands of initiations only to commit
#: a handful; capped slabs bound the waste, and the cap re-grows 4x per
#: fully-committed slab so genuine storms still batch by the tens of
#: thousands.
_SLAB_CAP0 = 1024


# ----------------------------------------------------------------------
# block-buffered RNG draws
# ----------------------------------------------------------------------
class _BlockStream:
    """Block-buffered raw draws replaying one Generator's scalar order.

    ``fill(rng, size)`` must advance the generator exactly like ``size``
    scalar draws of the same distribution (true for numpy's array fills);
    the buffer then hands raws out in order, so consumers see the exact
    sequence the scalar engines would have drawn.  ``mark``/``rewind``
    support speculative slabs: between a mark and its rewind the consumed
    prefix is kept, so un-consuming the draws of a truncated slab is a
    position reset, not a generator rollback.
    """

    __slots__ = ("_rng", "_fill", "_buf", "_lst", "_pos", "_hold")

    def __init__(self, rng, fill) -> None:
        self._rng = rng
        self._fill = fill
        self._buf = np.empty(0)
        self._lst: list[float] = []
        self._pos = 0
        self._hold = False

    def _ensure(self, k: int) -> None:
        avail = len(self._lst) - self._pos
        if avail >= k:
            return
        if self._pos and not self._hold:
            # Trim the consumed prefix (never while a mark is held — a
            # rewind position must stay valid across refills).
            self._buf = self._buf[self._pos :]
            del self._lst[: self._pos]
            self._pos = 0
        need = k - (len(self._lst) - self._pos)
        fresh = self._fill(self._rng, need if need > _BLOCK else _BLOCK)
        self._buf = np.concatenate((self._buf, fresh)) if self._buf.size else fresh
        self._lst.extend(fresh.tolist())

    def take(self, k: int) -> np.ndarray:
        """The next ``k`` raws as an array (advances the position)."""
        self._ensure(k)
        p = self._pos
        self._pos = p + k
        return self._buf[p : self._pos]

    def one(self) -> float:
        """The next raw as a Python float."""
        if self._pos >= len(self._lst):
            self._ensure(1)
        v = self._lst[self._pos]
        self._pos += 1
        return v

    def mark(self) -> int:
        """Pin the current position for a possible :meth:`rewind`."""
        self._hold = True
        return self._pos

    def rewind(self, pos: int) -> None:
        """Un-consume every draw taken after ``pos`` (releases the mark)."""
        self._pos = pos
        self._hold = False

    def release(self) -> None:
        """Commit the draws taken since :meth:`mark`."""
        self._hold = False


def _block_fill(model: LatencyModel):
    """Raw-block filler for a *known* stochastic model, else ``None``.

    Dispatch is on the exact type: a subclass may override ``sample``
    arbitrarily, so it must take the per-call fallback path.
    """
    t = type(model)
    if t is UniformLatency:
        lo, hi = model.lo, model.hi
        return lambda rng, size: rng.uniform(lo, hi, size)
    if t is ExponentialCappedLatency:
        mean = model.mean
        return lambda rng, size: rng.exponential(mean, size)
    return None


class _LatencySampler:
    """Exact-order delay sampler for one run's ``network-latency`` stream.

    Known stochastic models draw raw blocks through a rewindable
    :class:`_BlockStream` and apply the model's transform as vectorized
    (or scalar) arithmetic that matches ``sample``'s expression
    bit-for-bit.  Unknown models fall back to per-call ``sample`` with
    the real generator — exact by construction, but not batchable, so
    :attr:`rewindable` is False and the open-loop engine skips
    speculative slabs.
    """

    __slots__ = ("model", "rng", "stream", "_tf", "_tf_vec")

    def __init__(self, model: LatencyModel, rng) -> None:
        self.model = model
        self.rng = rng
        fill = _block_fill(model)
        self.stream = _BlockStream(rng, fill) if fill is not None else None
        t = type(model)
        if t is UniformLatency:
            # sample: weight * rng.uniform(lo, hi)
            self._tf = lambda w, r: w * r
            self._tf_vec = lambda ws, rs: ws * rs
        elif t is ExponentialCappedLatency:
            # sample: weight * min(max(raw, floor), cap)
            f, c = model.floor, model.cap
            self._tf = lambda w, r: w * (f if r < f else (c if r > c else r))
            self._tf_vec = lambda ws, rs: ws * np.clip(rs, f, c)
        else:
            self._tf = None
            self._tf_vec = None

    @property
    def rewindable(self) -> bool:
        return self.stream is not None

    def link_delay(self, src: int, dst: int, w: float) -> float:
        """Delay of one tree-link traversal (one raw draw)."""
        if self.stream is None:
            return self.model.sample(src, dst, w, self.rng)
        return self._tf(w, self.stream.one())

    def link_delays(self, ws: np.ndarray) -> np.ndarray:
        """Vectorized slab variant of :meth:`link_delay` (rewindable only)."""
        if not len(ws):
            return np.empty(0)
        return self._tf_vec(ws, self.stream.take(len(ws)))

    def path_delay(self, srcs, dsts, weights) -> float:
        """Summed delay of one routed path, matching ``_Router``'s fold."""
        if self.stream is None:
            sample = self.model.sample
            rng = self.rng
            delay = 0.0
            for a, b, w in zip(srcs, dsts, weights):
                delay += sample(a, b, w, rng)
            return delay
        raws = self.stream.take(len(weights))
        tf = self._tf
        delay = 0.0
        for w, r in zip(weights, raws.tolist()):
            delay += tf(w, r)
        return delay

    # Slab speculation protocol (rewindable samplers only).
    def mark(self) -> int:
        return self.stream.mark()

    def rewind(self, pos: int) -> None:
        self.stream.rewind(pos)

    def release(self) -> None:
        self.stream.release()


def _fused_link_delay(sampler: _LatencySampler):
    """One-call closure for the scalar hot path's per-send draw.

    Collapses the ``link_delay`` dispatch chain (method → transform →
    buffer) into a single lambda with pre-bound locals — the per-message
    savings compound over hundreds of thousands of events.
    """
    stream = sampler.stream
    if stream is None:
        model_sample = sampler.model.sample
        rng = sampler.rng
        return lambda v, dst, w: model_sample(v, dst, w, rng)
    tf = sampler._tf
    one = stream.one
    return lambda v, dst, w: tf(w, one())


def _det_link_tables(
    model: LatencyModel,
    parent: list[int],
    weight_np: np.ndarray,
    root: int,
    rng,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Vectorized build of the per-directed-tree-link delay tables.

    The values are bit-identical to ``_det_link_delays``'s scalar builds:
    the known models' tables are elementwise IEEE-754 expressions over
    the same weights, and unknown deterministic models fall through to
    the scalar loop itself.  ``None`` for stochastic models.
    """
    if model.stochastic:
        return None
    n = len(parent)
    t = type(model)
    if t is UnitLatency:
        up = np.ones(n)
        down = np.ones(n)
    elif t is WeightLatency:
        up = weight_np.copy()
        down = weight_np.copy()
    elif t is ScaledWeightLatency:
        up = model.factor * weight_np
        down = up.copy()
    else:
        det_up, det_down = _det_link_delays(
            model, parent, weight_np.tolist(), root, rng
        )
        return np.asarray(det_up), np.asarray(det_down)
    up[root] = 0.0
    down[root] = 0.0
    return up, down


class _BlockRouter(_Router):
    """A ``_Router`` whose stochastic path draws come from the block stream.

    Path reconstruction and caching are inherited; only the per-edge
    sampling changes, and :meth:`_LatencySampler.path_delay` keeps the
    parent's left-fold summation, so delays are bit-identical.
    """

    __slots__ = ("_sampler",)

    def __init__(self, graph: Graph, sampler: _LatencySampler) -> None:
        super().__init__(graph, sampler.model, sampler.rng)
        self._sampler = sampler

    def delay_hops(self, src: int, dst: int) -> tuple[float, int]:
        srcs, dsts, weights = self._path_edges(src, dst)
        return self._sampler.path_delay(srcs, dsts, weights), len(srcs)


def _closed_loop_router(graph: Graph, model: LatencyModel, rng):
    """Router + optional sampler for one closed-loop batch run."""
    if model.stochastic:
        sampler = _LatencySampler(model, rng)
        if sampler.rewindable:
            return _BlockRouter(graph, sampler), sampler
        return _Router(graph, model, rng), sampler
    return _Router(graph, model, rng), None


# ----------------------------------------------------------------------
# the open-loop engine
# ----------------------------------------------------------------------
class BatchArrowEngine:
    """Reusable vectorized executor for arrow runs on one ``(graph, tree)``.

    Mirrors :class:`~repro.core.fast_arrow.FastArrowEngine`'s constructor
    and :meth:`run` contract — same knobs, same unsupported message-level
    features (``notify_origin``, tracing), same bit-identical
    :class:`~repro.core.queueing.RunResult` — with the module docstring's
    vectorizations applied.
    """

    def __init__(
        self,
        graph: Graph,
        tree: SpanningTree,
        *,
        latency: LatencyModel | None = None,
        seed: int = 0,
        service_time: float = 0.0,
    ) -> None:
        if service_time < 0:
            raise NetworkError(f"service_time must be >= 0, got {service_time}")
        require_spanning_subgraph(graph, [(u, v) for u, v, _ in tree.edges()])
        self.graph = graph
        self.tree = tree
        self.latency = latency if latency is not None else UnitLatency()
        self.seed = seed
        self.service_time = float(service_time)

        n = tree.num_nodes
        self._n = n
        self._root = tree.root
        self._parent = list(tree.parent)
        self._parent_np = np.asarray(self._parent, dtype=np.int64)
        self._weight = _tree_link_weights(graph, self._parent, self._root)
        self._weight_np = np.asarray(self._weight)

        tables = _det_link_tables(
            self.latency,
            self._parent,
            self._weight_np,
            self._root,
            spawn_rng(seed, "network-latency"),
        )
        if tables is None:
            self._det_up_np = self._det_down_np = None
            self._det_up = self._det_down = None
        else:
            self._det_up_np, self._det_down_np = tables
            # List mirrors for the scalar event loop (list indexing beats
            # numpy scalar indexing there); values are the same floats.
            self._det_up = self._det_up_np.tolist()
            self._det_down = self._det_down_np.tolist()

    # ------------------------------------------------------------------
    def run(
        self,
        schedule: RequestSchedule,
        *,
        max_events: int | None = None,
        on_event=None,
    ) -> RunResult:
        """Execute one schedule; returns a ``run_arrow``-identical result.

        ``on_event``, when set, receives the protocol trace in the same
        order the message engine emits it (see :mod:`repro.monitors`).
        Speculative initiation slabs are disabled while a hook is
        attached — slabs commit events out of emission order — which
        changes nothing observable in the result, only the speed.
        """
        schedule.validate_nodes(self._n)

        n = self._n
        root = self._root

        # Protocol state (ArrowNode.init_pointers, flattened).
        link = self._parent[:]
        link[root] = root
        last_rid = [NO_RID] * n
        last_rid[root] = ROOT_RID
        # FIFO clamp per directed tree link: 2v = v -> parent[v],
        # 2v + 1 = parent[v] -> v (FifoChannel._last_delivery, flattened).
        last_delivery = [0.0] * (2 * n)

        sampler = (
            _LatencySampler(self.latency, spawn_rng(self.seed, "network-latency"))
            if self._det_up is None
            else None
        )

        done: list[tuple[int, int, int, float, int]] = []
        t0 = _wall.perf_counter()
        if self.service_time == 0.0:
            now, fired, messages = self._drain(
                schedule, link, last_rid, last_delivery, done, max_events,
                sampler, on_event,
            )
        else:
            now, fired, messages = self._drain_with_service(
                schedule, link, last_rid, last_delivery, done, max_events,
                sampler, on_event,
            )
        wall = _wall.perf_counter() - t0

        result = RunResult.from_rows(schedule, done)
        result.makespan = now if fired else 0.0
        result.wall_seconds = wall
        result.network_stats = {
            "messages_sent": messages,
            "link_messages": messages,
            "routed_messages": 0,
            "hops_total": messages,
        }
        if len(done) != len(schedule):
            raise ProtocolError(
                f"arrow run completed {len(done)} of "
                f"{len(schedule)} requests"
            )
        return result

    # ------------------------------------------------------------------
    def _drain(
        self,
        schedule: RequestSchedule,
        link: list[int],
        last_rid: list[int],
        last_delivery: list[float],
        done: list[tuple[int, int, int, float, int]],
        max_events: int | None,
        sampler: _LatencySampler | None,
        emit=None,
    ) -> tuple[float, int, int]:
        """Hot loop for ``service_time == 0`` (the §3.1 analysis model).

        Scalar events mirror ``FastArrowEngine._drain`` tuple-for-tuple
        (in-flight messages are ``(time, seq, dst, src, rid, hops)``);
        eligible initiation runs divert into :meth:`_slab`.
        """
        parent = self._parent
        weight = self._weight
        det_up = self._det_up
        det_down = self._det_down
        append = done.append
        push, pop = heappush, heappop

        init_times = schedule.times
        init_nodes = schedule.nodes
        # Array views of the schedule, built lazily on the first slab —
        # workloads that never form one skip the conversion cost.
        times_np = nodes_np = None

        # Slabs need delays computable ahead of commitment: deterministic
        # tables, or a block stream that can rewind speculative draws —
        # and an emission-free run (slabs commit out of event order).
        slab_ok = (
            det_up is not None or (sampler is not None and sampler.rewindable)
        ) and emit is None
        link_delay = _fused_link_delay(sampler) if sampler is not None else None

        limit = float("inf") if max_events is None else max_events
        heap: list[tuple[float, int, int, int, int, int]] = []
        m = len(init_times)
        seq = m  # kernel parity: initiations consumed seqs 0..m-1
        i = 0
        fired = 0
        messages = 0
        now = 0.0
        # Slab precheck constants, hoisted off the hot path; the adaptive
        # cap keeps a mostly-ineligible schedule from being speculated on
        # wholesale (grows 4x per fully-committed slab, resets on a
        # truncation).
        slab_last = _SLAB_MIN - 1
        slab_stop = (m - _SLAB_MIN) if slab_ok else -1
        cap = _SLAB_CAP0
        retry_at = 0

        while True:
            if i < m and (not heap or init_times[i] <= heap[0][0]):
                # O(1) slab precheck (plain list compares) before any
                # numpy call: are _SLAB_MIN initiations due right now?
                # A failed precheck backs off for half a slab of scalar
                # initiations — its cost must stay negligible on
                # workloads where slabs never form.
                if retry_at <= i <= slab_stop:
                    top = heap[0][0] if heap else float("inf")
                    if init_times[i + slab_last] <= top:
                        if times_np is None:
                            times_np = np.asarray(init_times, dtype=np.float64)
                            nodes_np = np.asarray(init_nodes, dtype=np.int64)
                        j = min(
                            int(np.searchsorted(times_np, top, side="right")),
                            i + cap,
                        )
                        i, seq, messages, fired, now = self._slab(
                            i, j, top, seq, messages, fired, limit, max_events,
                            nodes_np, times_np, link, last_rid, last_delivery,
                            heap, done, sampler, None,
                        )
                        cap = (cap * 4) if i == j else _SLAB_CAP0
                        continue
                    retry_at = i + _SLAB_MIN // 2
                # Scalar initiation of request i (ArrowNode.initiate).
                now = init_times[i]
                v = init_nodes[i]
                rid = i
                i += 1
                fired += 1
                if fired > limit:
                    _raise_livelock(max_events)
                if emit is not None:
                    emit("init", rid, v, now)
                x = link[v]
                if x == v:
                    # Local find: queued behind v's previous request.
                    if emit is not None:
                        emit("complete", rid, last_rid[v], v, now, 0)
                    append((rid, last_rid[v], v, now, 0))
                    last_rid[v] = rid
                    continue
                last_rid[v] = rid
                link[v] = v
                dst = x
                hops = 1
            elif heap:
                now, _, v, src, rid, hops = pop(heap)
                fired += 1
                if fired > limit:
                    _raise_livelock(max_events)
                # Path reversal (ArrowNode.on_message).
                if emit is not None:
                    emit("deliver", rid, v, src, now)
                x = link[v]
                link[v] = src
                if x == v:
                    if emit is not None:
                        emit("complete", rid, last_rid[v], v, now, hops)
                    append((rid, last_rid[v], v, now, hops))
                    continue
                dst = x
                hops += 1
            else:
                break

            # One link traversal v -> dst (send_link / forward + FifoChannel).
            if emit is not None:
                emit("send", rid, v, dst, now)
            down = parent[dst] == v
            if det_up is None:
                delay = link_delay(v, dst, weight[dst] if down else weight[v])
            else:
                delay = det_down[dst] if down else det_up[v]
            chan = 2 * dst + 1 if down else 2 * v
            at = now + delay
            if at < last_delivery[chan]:
                at = last_delivery[chan]
            last_delivery[chan] = at
            push(heap, (at, seq, dst, v, rid, hops))
            seq += 1
            messages += 1
        return now, fired, messages

    # ------------------------------------------------------------------
    def _drain_with_service(
        self,
        schedule: RequestSchedule,
        link: list[int],
        last_rid: list[int],
        last_delivery: list[float],
        done: list[tuple[int, int, int, float, int]],
        max_events: int | None,
        sampler: _LatencySampler | None,
        emit=None,
    ) -> tuple[float, int, int]:
        """General loop with per-node sequential service (Fig. 10 model).

        Heap tuples carry an explicit event tag —
        ``(time, seq, tag, node, src, rid, hops)`` — mirroring
        ``FastArrowEngine._drain_with_service``; initiation slabs emit
        tagged arrivals.
        """
        parent = self._parent
        weight = self._weight
        det_up = self._det_up
        det_down = self._det_down
        service = self.service_time
        busy_until = [0.0] * self._n  # Network._busy_until
        append = done.append

        init_times = schedule.times
        init_nodes = schedule.nodes
        # Array views of the schedule, built lazily on the first slab —
        # workloads that never form one skip the conversion cost.
        times_np = nodes_np = None

        slab_ok = (
            det_up is not None or (sampler is not None and sampler.rewindable)
        ) and emit is None
        link_delay = _fused_link_delay(sampler) if sampler is not None else None

        limit = float("inf") if max_events is None else max_events
        heap: list[tuple[float, int, int, int, int, int, int]] = []
        m = len(init_times)
        seq = m
        i = 0
        fired = 0
        messages = 0
        now = 0.0
        slab_last = _SLAB_MIN - 1
        slab_stop = (m - _SLAB_MIN) if slab_ok else -1
        cap = _SLAB_CAP0
        retry_at = 0

        while True:
            if i < m and (not heap or init_times[i] <= heap[0][0]):
                if retry_at <= i <= slab_stop:
                    top = heap[0][0] if heap else float("inf")
                    if init_times[i + slab_last] <= top:
                        if times_np is None:
                            times_np = np.asarray(init_times, dtype=np.float64)
                            nodes_np = np.asarray(init_nodes, dtype=np.int64)
                        j = min(
                            int(np.searchsorted(times_np, top, side="right")),
                            i + cap,
                        )
                        i, seq, messages, fired, now = self._slab(
                            i, j, top, seq, messages, fired, limit, max_events,
                            nodes_np, times_np, link, last_rid, last_delivery,
                            heap, done, sampler, _ARRIVE,
                        )
                        cap = (cap * 4) if i == j else _SLAB_CAP0
                        continue
                    retry_at = i + _SLAB_MIN // 2
                now = init_times[i]
                v = init_nodes[i]
                rid = i
                i += 1
                fired += 1
                if fired > limit:
                    _raise_livelock(max_events)
                if emit is not None:
                    emit("init", rid, v, now)
                x = link[v]
                if x == v:
                    if emit is not None:
                        emit("complete", rid, last_rid[v], v, now, 0)
                    append((rid, last_rid[v], v, now, 0))
                    last_rid[v] = rid
                    continue
                last_rid[v] = rid
                link[v] = v
                dst = x
                hops = 1
            elif heap:
                now, _, tag, v, src, rid, hops = heappop(heap)
                fired += 1
                if fired > limit:
                    _raise_livelock(max_events)
                if tag == _ARRIVE:
                    # Serialise handling at v (Network._arrive): the
                    # path-reversal step runs as its own dispatch event.
                    begin = busy_until[v]
                    if now > begin:
                        begin = now
                    finish = begin + service
                    busy_until[v] = finish
                    heappush(heap, (finish, seq, _DISPATCH, v, src, rid, hops))
                    seq += 1
                    continue
                if emit is not None:
                    emit("deliver", rid, v, src, now)
                x = link[v]
                link[v] = src
                if x == v:
                    if emit is not None:
                        emit("complete", rid, last_rid[v], v, now, hops)
                    append((rid, last_rid[v], v, now, hops))
                    continue
                dst = x
                hops += 1
            else:
                break

            if emit is not None:
                emit("send", rid, v, dst, now)
            down = parent[dst] == v
            if det_up is None:
                delay = link_delay(v, dst, weight[dst] if down else weight[v])
            else:
                delay = det_down[dst] if down else det_up[v]
            chan = 2 * dst + 1 if down else 2 * v
            at = now + delay
            if at < last_delivery[chan]:
                at = last_delivery[chan]
            last_delivery[chan] = at
            heappush(heap, (at, seq, _ARRIVE, dst, v, rid, hops))
            seq += 1
            messages += 1
        return now, fired, messages

    # ------------------------------------------------------------------
    def _slab(
        self,
        i: int,
        j: int,
        top: float,
        seq: int,
        messages: int,
        fired: int,
        limit: float,
        max_events: int | None,
        nodes_np: np.ndarray,
        times_np: np.ndarray,
        link: list[int],
        last_rid: list[int],
        last_delivery: list[float],
        heap: list,
        done: list,
        sampler: _LatencySampler | None,
        arrive_tag: int | None,
    ) -> tuple[int, int, int, int, float]:
        """Vectorized draining of the initiation run ``[i, j)``.

        Scalar semantics being replayed, per initiation in order: a node
        whose link points to itself completes locally (queued behind the
        node's previous request, no event, no seq); any other node sends
        one message to its link target and turns its own pointer to
        itself — so every occurrence of a node after its first within
        the slab is a local find chained behind the previous one.  Sends
        consume sequence numbers in initiation order, and the FIFO clamps
        of distinct slab sends touch distinct directed channels (each
        sender occurs once; each down-channel's parent is unique).

        The slab is speculative: an initiation only fires while
        ``init_time <= heap[0][0]``, and slab sends *feed* the heap, so
        the slab truncates at the first initiation that a slab send's
        arrival (or the pre-slab heap top) precedes.  Draws made for
        truncated sends are rewound; nothing observable happens for them.
        """
        m_slab = j - i
        nodes = nodes_np[i:j]
        times = times_np[i:j]
        nodes_l = nodes.tolist()

        # First slab occurrence of each node (later occurrences: local).
        first_idx = np.unique(nodes, return_index=True)[1]
        is_first = np.zeros(m_slab, dtype=bool)
        is_first[first_idx] = True
        cur = np.fromiter((link[v] for v in nodes_l), dtype=np.int64, count=m_slab)
        send_mask = is_first & (cur != nodes)
        send_pos = np.nonzero(send_mask)[0]
        n_send = len(send_pos)

        # Candidate sends: delays and FIFO-clamped arrival times.
        sv = nodes[send_pos]
        sdst = cur[send_pos]
        down = self._parent_np[sdst] == sv
        if self._det_up is not None:
            delay = np.where(down, self._det_down_np[sdst], self._det_up_np[sv])
            mark = None
        else:
            mark = sampler.mark()
            delay = sampler.link_delays(self._weight_np[np.where(down, sdst, sv)])
        chan = np.where(down, 2 * sdst + 1, 2 * sv)
        ld = np.fromiter(
            (last_delivery[c] for c in chan.tolist()), dtype=np.float64, count=n_send
        )
        at = np.maximum(times[send_pos] + delay, ld)

        # Initiation q fires only while no earlier slab send has arrived
        # and the pre-slab heap top is not due: bound_q = min(top,
        # min arrival among sends before q), replayed as a running min.
        aux = np.full(m_slab + 1, np.inf)
        aux[0] = top
        aux[send_pos + 1] = at
        fire = times <= np.minimum.accumulate(aux)[:m_slab]
        commit = m_slab if bool(fire.all()) else int(np.argmax(~fire))

        if fired + commit > limit:
            _raise_livelock(max_events)
        fired += commit

        if commit < m_slab:
            keep = int(np.count_nonzero(send_pos < commit))
            if mark is not None:
                sampler.rewind(mark + keep)
            nodes_l = nodes_l[:commit]
            times = times[:commit]
            send_mask = send_mask[:commit]
            send_pos = send_pos[:keep]
            sv = sv[:keep]
            sdst = sdst[:keep]
            at = at[:keep]
            chan = chan[:keep]
            n_send = keep
            nodes = nodes[:commit]
        elif mark is not None:
            sampler.release()

        # Local-find completions, in rid order.  The predecessor is the
        # node's previous slab occurrence, or its pre-slab last_rid.
        order = np.argsort(nodes, kind="stable")
        prev = np.full(commit, -1, dtype=np.int64)
        same = nodes[order][1:] == nodes[order][:-1]
        prev[order[1:][same]] = order[:-1][same]
        base = np.fromiter(
            (last_rid[v] for v in nodes_l), dtype=np.int64, count=commit
        )
        pred = np.where(prev >= 0, i + prev, base).tolist()
        times_l = times.tolist()
        append = done.append
        for q in np.nonzero(~send_mask)[0].tolist():
            append((i + q, pred[q], nodes_l[q], times_l[q], 0))

        # State updates: every initiation moves its node's last_rid; every
        # sender turns its pointer to itself (locals already point there).
        for q, v in enumerate(nodes_l):
            last_rid[v] = i + q
        sv_l = sv.tolist()
        for v in sv_l:
            link[v] = v

        # Sends: FIFO-clamp bookkeeping and heap insertion, seqs in
        # initiation order.  A storm into an empty heap is one heapify.
        at_l = at.tolist()
        chan_l = chan.tolist()
        for k in range(n_send):
            last_delivery[chan_l[k]] = at_l[k]
        sdst_l = sdst.tolist()
        srid = (i + send_pos).tolist()
        if arrive_tag is None:
            # service_time == 0 loop: untagged message tuples.
            events = [
                (at_l[k], seq + k, sdst_l[k], sv_l[k], srid[k], 1)
                for k in range(n_send)
            ]
        else:
            events = [
                (at_l[k], seq + k, arrive_tag, sdst_l[k], sv_l[k], srid[k], 1)
                for k in range(n_send)
            ]
        if heap:
            for ev in events:
                heappush(heap, ev)
        else:
            heap.extend(events)
            heapify(heap)
        seq += n_send
        messages += n_send

        return i + commit, seq, messages, fired, times_l[-1]


def run_arrow_batch(
    graph: Graph,
    tree: SpanningTree,
    schedule: RequestSchedule,
    *,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
    on_event=None,
) -> RunResult:
    """Drop-in vectorized replacement for the supported ``run_arrow`` subset.

    Accepts the same model knobs as :func:`repro.core.runner.run_arrow`
    except ``notify_origin`` and ``tracer`` (message-level features); the
    returned result is bit-identical to the message simulator's and the
    fast engine's.
    """
    engine = BatchArrowEngine(
        graph, tree, latency=latency, seed=seed, service_time=service_time
    )
    return engine.run(schedule, max_events=max_events, on_event=on_event)


# ----------------------------------------------------------------------
# the closed loops: block delay sources bound to the fast engine's cores
# ----------------------------------------------------------------------
def closed_loop_arrow_batch(
    graph: Graph,
    tree: SpanningTree,
    *,
    requests_per_proc: int,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    think_time: float = 0.0,
    max_events: int | None = None,
    on_event=None,
) -> ClosedLoopResult:
    """Closed-loop arrow run, bit-identical to both §5 arrow drivers."""
    if service_time < 0:
        raise NetworkError(f"service_time must be >= 0, got {service_time}")
    require_spanning_subgraph(graph, [(u, v) for u, v, _ in tree.edges()])
    n = graph.num_nodes
    result = ClosedLoopResult("arrow", n, requests_per_proc)
    model = latency if latency is not None else UnitLatency()
    rng = spawn_rng(seed, "network-latency")

    root = tree.root
    parent = list(tree.parent)
    weight = _tree_link_weights(graph, parent, root)
    weight_np = np.asarray(weight)
    tables = _det_link_tables(model, parent, weight_np, root, rng)
    if tables is None:
        det_up = det_down = None
    else:
        det_up, det_down = (tables[0].tolist(), tables[1].tolist())
    router, sampler = _closed_loop_router(graph, model, rng)

    return _run_arrow_closed_loop(
        result,
        parent,
        root,
        weight,
        requests_per_proc=requests_per_proc,
        service=float(service_time),
        think=float(think_time),
        max_events=max_events,
        det_up=det_up,
        det_down=det_down,
        sample_link=_fused_link_delay(sampler) if sampler is not None else None,
        router=router,
        on_event=on_event,
    )


def closed_loop_centralized_batch(
    graph: Graph,
    center: int,
    *,
    requests_per_proc: int,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    think_time: float = 0.0,
    max_events: int | None = None,
) -> ClosedLoopResult:
    """Closed-loop centralized run, bit-identical to both §5 drivers."""
    if service_time < 0:
        raise NetworkError(f"service_time must be >= 0, got {service_time}")
    n = graph.num_nodes
    if not 0 <= center < n:
        raise NetworkError(f"center {center} out of range for {n} nodes")
    result = ClosedLoopResult("centralized", n, requests_per_proc)
    model = latency if latency is not None else UnitLatency()
    rng = spawn_rng(seed, "network-latency")
    router, _ = _closed_loop_router(graph, model, rng)

    return _run_centralized_closed_loop(
        result,
        n,
        center,
        requests_per_proc=requests_per_proc,
        service=float(service_time),
        think=float(think_time),
        max_events=max_events,
        router=router,
    )
