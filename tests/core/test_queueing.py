"""Unit tests for RunResult bookkeeping and total-order verification."""

import pytest

from repro.core.fast_arrow import arrow_runner
from repro.core.queueing import CompletionRecord, RunResult, verify_total_order
from repro.core.requests import ROOT_RID, RequestSchedule
from repro.errors import ProtocolError
from repro.faults import run_arrow_faulted
from repro.graphs import complete_graph
from repro.spanning import bfs_tree
from repro.workloads.schedules import poisson


def sched3():
    return RequestSchedule([(0, 0.0), (1, 1.0), (2, 2.0)])


def rec(rid, pred, node=0, when=1.0, hops=1):
    return CompletionRecord(rid, pred, node, when, hops)


def test_order_reconstruction_follows_successor_chain():
    r = RunResult(sched3())
    r.record(rec(2, 0))
    r.record(rec(0, ROOT_RID))
    r.record(rec(1, 2))
    assert r.order == [0, 2, 1]
    assert verify_total_order(r) == [0, 2, 1]


def test_double_completion_rejected():
    r = RunResult(sched3())
    r.record(rec(0, ROOT_RID))
    with pytest.raises(ProtocolError):
        r.record(rec(0, ROOT_RID))


def test_two_requests_claiming_same_predecessor_rejected():
    r = RunResult(sched3())
    r.record(rec(0, ROOT_RID))
    r.record(rec(1, 0))
    r.record(rec(2, 0))
    with pytest.raises(ProtocolError):
        _ = r.order


def test_broken_chain_detected():
    r = RunResult(sched3())
    r.record(rec(0, ROOT_RID))
    r.record(rec(2, 1))  # predecessor 1 never completed
    with pytest.raises(ProtocolError):
        _ = r.order


def test_missing_completion_detected():
    r = RunResult(sched3())
    r.record(rec(0, ROOT_RID))
    with pytest.raises(ProtocolError, match="never completed"):
        verify_total_order(r)


def test_latency_and_totals():
    r = RunResult(sched3())
    r.record(CompletionRecord(0, ROOT_RID, 0, 2.0, 2))
    r.record(CompletionRecord(1, 0, 0, 4.0, 3))
    r.record(CompletionRecord(2, 1, 1, 2.5, 0))
    assert r.latency(0) == 2.0
    assert r.latency(1) == 3.0
    assert r.latency(2) == 0.5
    assert r.total_latency == pytest.approx(5.5)
    assert r.total_hops == 5
    assert r.mean_hops == pytest.approx(5 / 3)
    assert r.local_find_fraction() == pytest.approx(1 / 3)


def test_empty_result_statistics():
    r = RunResult(RequestSchedule([]))
    assert r.order == []
    assert r.total_latency == 0.0
    assert r.mean_hops == 0.0
    assert r.local_find_fraction() == 0.0


# ----------------------------------------------------------------------
# columnar storage
# ----------------------------------------------------------------------
def test_completions_iterate_in_completion_order():
    r = RunResult(sched3())
    r.record(rec(2, 0))
    r.record(rec(0, ROOT_RID))
    r.record(rec(1, 2))
    assert list(r.completions) == [2, 0, 1]
    rows = [(1, 2, 0, 3.0, 1), (0, ROOT_RID, 0, 1.0, 0), (2, 0, 1, 2.0, 2)]
    f = RunResult.from_rows(sched3(), rows)
    assert list(f.completions) == [1, 0, 2]
    assert list(f.completions.values()) == [CompletionRecord(*row) for row in rows]
    assert f.latencies() == [2.0, 1.0, 0.0]


def test_completions_mapping_is_read_only_and_stays_live():
    r = RunResult(sched3())
    r.record(rec(0, ROOT_RID))
    view = r.completions
    with pytest.raises(TypeError):
        view[1] = rec(1, 0)  # type: ignore[index]
    r.record(rec(1, 0))
    assert list(view) == [0, 1]
    assert 2 not in view and 1 in view


def test_from_rows_rejects_duplicate_completion():
    rows = [(0, ROOT_RID, 0, 1.0, 0), (1, 0, 0, 2.0, 1), (0, 1, 0, 3.0, 1)]
    with pytest.raises(ProtocolError):
        RunResult.from_rows(sched3(), rows)


def test_record_rejects_unknown_rid():
    r = RunResult(sched3())
    for rid in (ROOT_RID, 3):
        with pytest.raises(ProtocolError):
            r.record(rec(rid, ROOT_RID))


def test_latency_of_missing_or_reserved_rid_raises_key_error():
    r = RunResult(sched3())
    r.record(rec(2, ROOT_RID, when=5.0))
    assert r.latency(2) == 3.0
    for rid in (0, ROOT_RID, 3):
        with pytest.raises(KeyError):
            r.latency(rid)


def test_equality_ignores_completion_order_and_wall_clock():
    s = sched3()
    a, b = RunResult(s), RunResult(s)
    recs = [rec(0, ROOT_RID), rec(1, 0), rec(2, 1)]
    for x in recs:
        a.record(x)
    for x in reversed(recs):
        b.record(x)
    b.wall_seconds = 99.0
    assert a == b
    assert a.completions == b.completions
    assert list(a.completions) != list(b.completions)
    b.makespan = 1.0
    assert a != b
    c = RunResult(s)
    c.record(rec(0, ROOT_RID))
    assert a != c


def historical_summaries(result):
    """The pre-columnar RunResult formulas, vendored as the oracle."""
    comps = result.completions
    lat = [comps[rid].completed_at - result.schedule.by_rid(rid).time for rid in comps]
    total = sum(
        comps[rid].completed_at - result.schedule.by_rid(rid).time for rid in comps
    )
    total_hops = sum(rec.hops for rec in comps.values())
    mean_hops = total_hops / len(comps) if comps else 0.0
    zero = sum(1 for rec in comps.values() if rec.hops == 0)
    local = zero / len(comps) if comps else 0.0
    return [repr(x) for x in lat], repr(total), total_hops, repr(mean_hops), repr(local)


def columnar_summaries(result):
    return (
        [repr(x) for x in result.latencies()],
        repr(result.total_latency),
        result.total_hops,
        repr(result.mean_hops),
        repr(result.local_find_fraction()),
    )


@pytest.mark.parametrize("service_time", [0.0, 0.1])
@pytest.mark.parametrize("runner", ["fast", "message"])
def test_summaries_match_historical_formulas(runner, service_time):
    graph = complete_graph(24)
    tree = bfs_tree(graph, 0)
    sched = poisson(24, 400, rate=6.0, seed=5)
    res = arrow_runner(runner)(graph, tree, sched, seed=5, service_time=service_time)
    assert len(res.completions) == len(sched)
    assert columnar_summaries(res) == historical_summaries(res)
    assert verify_total_order(res) == res.order


@pytest.mark.parametrize("engine", ["fast", "message"])
def test_faulted_summaries_match_historical_formulas(engine):
    graph = complete_graph(16)
    tree = bfs_tree(graph, 0)
    sched = poisson(16, 300, rate=4.0, seed=2)
    res, report = run_arrow_faulted(
        graph, tree, sched, "crash@10:3,loss:0.05", engine=engine, seed=2,
        service_time=0.1,
    )
    assert report.requests_lost > 0
    assert len(res.completions) + report.requests_lost == len(sched)
    assert set(report.lost_rids).isdisjoint(res.completions)
    assert columnar_summaries(res) == historical_summaries(res)
