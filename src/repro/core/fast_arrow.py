"""Fast-path arrow engine: ``run_arrow`` semantics without the message layer.

:func:`run_arrow_fast` executes open-loop arrow runs on the tree's
parent pointers with a flat binary heap over ``(time, seq)`` tuples and
plain int/float array node state (``link``, ``last_rid``) — no
:class:`~repro.net.message.Message` objects, no per-event
:class:`~repro.sim.events.Event` dataclasses, no
:class:`~repro.net.network.Network` dispatch.  The produced
:class:`~repro.core.queueing.RunResult` is bit-identical to
:func:`repro.core.runner.run_arrow` (same completions, predecessors, hop
counts, makespan and tie-breaking), which the differential suite in
``tests/core/test_fast_arrow_differential.py`` enforces instance by
instance.

Why bit-identical is achievable
-------------------------------
The message-level kernel orders events by ``(time, priority, seq)`` with a
single global sequence counter and every event in an arrow run using the
default priority, so the total order reduces to ``(time, seq)``.  The fast
engine schedules the *same* events in the *same* order — initiations in
canonical rid order, then one arrival per link traversal (plus one
dispatch per arrival when ``service_time > 0``) — so its own sequence
counter reproduces the kernel's tie-breaking exactly.  FIFO clamping per
directed tree link and the per-node busy-until service model are replayed
arithmetically, and stochastic latency models draw from the same
``spawn_rng(seed, "network-latency")`` stream in the same order as
:class:`~repro.net.network.Network` would (through
:func:`~repro.net.latency.link_sampler`'s block draws).

One event loop, :func:`_drain`, runs every open-loop fast run: with or
without per-node service time, fault-free or under the fault hooks that
:func:`repro.faults.run_arrow_faulted` passes in.
"""

from __future__ import annotations

import time as _wall
from heapq import heappop, heappush

from repro.core.queueing import RunResult
from repro.core.requests import NO_RID, ROOT_RID, RequestSchedule
from repro.errors import NetworkError, ProtocolError, SimulationError
from repro.graphs.graph import Graph
from repro.graphs.validation import require_spanning_subgraph
from repro.net.latency import LatencyModel, UnitLatency, link_sampler
from repro.sim.rng import spawn_rng
from repro.spanning.tree import SpanningTree

__all__ = ["arrow_runner", "run_arrow_fast"]


def arrow_runner(engine: str):
    """Resolve an engine name to its run function.

    The single validation point for the experiment layer's
    ``engine="fast" | "message"`` knobs — unknown names raise instead of
    silently falling back to one of the engines.
    """
    if engine == "fast":
        return run_arrow_fast
    if engine == "message":
        from repro.core.runner import run_arrow

        return run_arrow
    raise ValueError(f"engine must be 'fast' or 'message', got {engine!r}")


def _raise_livelock(max_events: int | None) -> None:
    raise SimulationError(
        f"exceeded max_events={max_events}; possible livelock in protocol code"
    )


def _tree_links(
    graph: Graph, tree: SpanningTree, model: LatencyModel, seed: int
) -> tuple[list[int], list[float], list[float] | None, list[float] | None]:
    """Parent pointers, link weights and deterministic link delays of a tree.

    Weights are the graph's weights on the tree edges, as the Network
    sees them (``tree.edge_weight`` may legitimately differ).
    Deterministic models ignore the rng but may legally depend on the
    (src, dst) direction, so they get one delay per *directed* link:
    ``up[v]`` = v -> parent[v], ``down[v]`` = parent[v] -> v.  Both
    tables are ``None`` for stochastic models, which draw per send.
    """
    root = tree.root
    parent = list(tree.parent)
    weight = [0.0] * len(parent)
    for v in range(len(parent)):
        if v != root:
            weight[v] = graph.weight(v, parent[v])
    if model.stochastic:
        return parent, weight, None, None
    rng = spawn_rng(seed, "network-latency")
    sample = model.sample
    up = [
        sample(v, parent[v], weight[v], rng) if v != root else 0.0
        for v in range(len(parent))
    ]
    down = [
        sample(parent[v], v, weight[v], rng) if v != root else 0.0
        for v in range(len(parent))
    ]
    return parent, weight, up, down


# Event type tags inside the loop's heap tuples.
_CRASH = 0
_ARRIVE = 1
_DISPATCH = 2


def run_arrow_fast(
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
    """Drop-in fast replacement for the supported ``run_arrow`` subset.

    Accepts the same model knobs as :func:`repro.core.runner.run_arrow`
    except ``notify_origin`` and ``tracer`` (message-level features: use
    the message simulator for those); the returned result is
    bit-identical to the message simulator's.  ``on_event``, when set,
    receives the protocol trace in the same order the message engine
    emits it (see :mod:`repro.monitors`); ``None`` (the default) keeps
    the hot loop emission-free.
    """
    if service_time < 0:
        raise NetworkError(f"service_time must be >= 0, got {service_time}")
    require_spanning_subgraph(graph, [(u, v) for u, v, _ in tree.edges()])
    schedule.validate_nodes(tree.num_nodes)
    return _run(
        graph,
        tree,
        schedule,
        latency if latency is not None else UnitLatency(),
        seed,
        float(service_time),
        max_events,
        on_event,
        None,
    )


def _run(
    graph: Graph,
    tree: SpanningTree,
    schedule: RequestSchedule,
    latency: LatencyModel,
    seed: int,
    service_time: float,
    max_events: int | None,
    on_event,
    fs,
) -> RunResult:
    """One open-loop run on validated inputs, optionally under faults.

    ``fs`` is ``None`` or the run's :class:`repro.faults._FaultState`.  A
    faulted run closes with ``fs.finish``, which fills in ``fs.report``;
    a fault-free run that leaves a request incomplete raises.
    """
    n = tree.num_nodes
    root = tree.root
    parent, weight, det_up, det_down = _tree_links(graph, tree, latency, seed)
    # Per-send sampler of stochastic models, on a fresh stream every run.
    draw = (
        link_sampler(latency, spawn_rng(seed, "network-latency"))
        if det_up is None
        else None
    )

    # Protocol state (ArrowNode.init_pointers, flattened).
    link = parent[:]
    link[root] = root
    last_rid = [NO_RID] * n
    last_rid[root] = ROOT_RID

    # FIFO clamp per directed tree link: 2v = v -> parent[v],
    # 2v + 1 = parent[v] -> v (FifoChannel._last_delivery, flattened).
    last_delivery = [0.0] * (2 * n)

    # Raw completion rows (rid, pred, node, time, hops), handed to the
    # result's columns once, after the hot loop.
    done: list[tuple[int, int, int, float, int]] = []

    t0 = _wall.perf_counter()
    now, fired, messages = _drain(
        schedule.times, schedule.nodes, parent, weight, det_up, det_down, draw,
        service_time, link, last_rid, last_delivery, done, max_events,
        on_event, fs,
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
    if fs is not None:
        fs.finish(link, len(done), len(schedule))
    elif len(done) != len(schedule):
        raise ProtocolError(
            f"arrow run completed {len(done)} of "
            f"{len(schedule)} requests"
        )
    return result


def _drain(
    init_times: list[float],
    init_nodes: list[int],
    parent: list[int],
    weight: list[float],
    det_up: list[float] | None,
    det_down: list[float] | None,
    draw,
    service: float,
    link: list[int],
    last_rid: list[int],
    last_delivery: list[float],
    done: list[tuple[int, int, int, float, int]],
    max_events: int | None,
    emit,
    fs,
) -> tuple[float, int, int]:
    """The open-loop event loop, with per-node sequential service (Fig. 10)
    and faults.

    ``fs`` is ``None`` or the run's :class:`repro.faults._FaultState`;
    every fault hook sits under one ``fs is not None`` test per site.
    Kernel-parity sequence numbering: initiations own seqs
    ``0..m-1``, the plan's crash events ``m..m+c-1`` (the message
    runner schedules them in exactly that order), messages count on
    from ``m+c``.  A dropped send consumes no sequence number, no
    latency draw and no FIFO clamp: the message engine never reaches
    ``transmit`` for it either.

    Initiation events stay out of the heap: the schedule is already in
    canonical (time, rid) order, which is exactly the kernel's (time,
    seq) order for them, and every in-flight message event carries a
    larger sequence number than every initiation (the runner schedules
    all initiations before the first send), so on a time tie the
    initiation always fires first.
    """
    busy_until = [0.0] * len(parent)  # Network._busy_until
    append = done.append
    push, pop = heappush, heappop

    # (time, seq, tag, node, src, rid, hops) with explicit event tags:
    # arrivals go through the service stage, dispatches do the work.
    # Without service time (the §3.1 analysis model) a message is handled
    # the moment it arrives, so sends are tagged as dispatches.
    arrive = _ARRIVE if service > 0.0 else _DISPATCH
    limit = float("inf") if max_events is None else max_events
    m = len(init_times)
    heap: list[tuple[float, int, int, int, int, int, int]] = []
    if fs is not None:
        down_nodes = fs.down
        heap = [
            (t, m + k, _CRASH, v, -1, -1, 0)
            for k, (v, t) in enumerate(fs.crashes)
        ]
        heap.sort()
    seq = m + len(heap)
    i = 0
    fired = 0
    messages = 0
    now = 0.0

    while True:
        if i < m and (not heap or init_times[i] <= heap[0][0]):
            # Initiation of request i (ArrowNode.initiate).
            now = init_times[i]
            v = init_nodes[i]
            rid = i
            i += 1
            fired += 1
            if fired > limit:
                _raise_livelock(max_events)
            if fs is not None:
                # Quiescent-point repair first, so the request sees a
                # consistent configuration whenever one is restorable.
                if fs.repair_due():
                    sink, er = fs.repair(link, now)
                    last_rid[sink] = er
                if down_nodes[v]:
                    fs.drop_initiation(rid, v, now)
                    continue
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
            now, _, tag, v, src, rid, hops = pop(heap)
            fired += 1
            if fired > limit:
                _raise_livelock(max_events)
            if tag == _ARRIVE:
                if fs is not None and fs.drops_arrival(src, v, rid, now):
                    continue
                # Serialise handling at v (Network._arrive): the
                # path-reversal step runs as its own dispatch event.
                begin = busy_until[v]
                if now > begin:
                    begin = now
                finish = begin + service
                busy_until[v] = finish
                push(heap, (finish, seq, _DISPATCH, v, src, rid, hops))
                seq += 1
                continue
            if fs is not None:
                if tag == _CRASH:
                    fs.crash(v, now)
                    link[v] = v
                    continue
                if fs.drops_arrival(src, v, rid, now):
                    # A down node drops the message undelivered (with
                    # service time: it crashed while the message waited).
                    continue
                fs.in_flight -= 1
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
        if fs is not None:
            if fs.drops_send(v, dst, rid, now):
                continue
            fs.in_flight += 1
        down = parent[dst] == v
        if det_up is None:
            delay = draw(v, dst, weight[dst if down else v])
        else:
            delay = det_down[dst] if down else det_up[v]
        chan = 2 * dst + 1 if down else 2 * v
        at = now + delay
        if at < last_delivery[chan]:
            at = last_delivery[chan]
        last_delivery[chan] = at
        push(heap, (at, seq, arrive, dst, v, rid, hops))
        seq += 1
        messages += 1

    if fs is not None and fs.degraded:
        # End-of-run repair: the heap drained, so the run is quiescent.
        sink, er = fs.repair(link, now)
        last_rid[sink] = er
    return now, fired, messages
