"""Unit tests for requests and schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.requests import NO_RID, ROOT_RID, Request, RequestSchedule
from repro.errors import ScheduleError
from repro.sim.rng import spawn_rng
from repro.workloads.schedules import (
    bursty,
    hotspot,
    one_shot,
    poisson,
    random_times,
    sequential,
)


def test_canonical_order_is_time_major():
    s = RequestSchedule([(5, 3.0), (1, 1.0), (2, 2.0)])
    assert [r.node for r in s] == [1, 2, 5]
    assert [r.rid for r in s] == [0, 1, 2]


def test_ties_keep_insertion_order():
    s = RequestSchedule([(9, 1.0), (4, 1.0), (7, 1.0)])
    assert [r.node for r in s] == [9, 4, 7]


def test_negative_time_rejected():
    with pytest.raises(ScheduleError):
        RequestSchedule([(0, -1.0)])


def test_by_rid_lookup():
    s = RequestSchedule([(3, 0.0), (4, 1.0)])
    assert s.by_rid(1).node == 4
    with pytest.raises(ScheduleError):
        s.by_rid(7)


def test_nodes_times_vectors():
    s = RequestSchedule([(3, 0.5), (4, 1.5)])
    assert s.nodes == [3, 4]
    assert s.times == [0.5, 1.5]
    assert s.max_time() == 1.5


def test_empty_schedule():
    s = RequestSchedule([])
    assert len(s) == 0
    assert s.max_time() == 0.0


def test_validate_nodes():
    s = RequestSchedule([(3, 0.0)])
    s.validate_nodes(4)
    with pytest.raises(ScheduleError):
        s.validate_nodes(3)


def test_shifted_moves_selected_requests():
    s = RequestSchedule([(0, 0.0), (1, 5.0), (2, 9.0)])
    s2 = s.shifted([1, 2], -3.0)
    assert s2.times == [0.0, 2.0, 6.0]
    # Unshifted schedule is untouched (immutability).
    assert s.times == [0.0, 5.0, 9.0]


def test_shifted_reindexes_canonically():
    s = RequestSchedule([(0, 0.0), (1, 5.0)])
    s2 = s.shifted([1], -5.0)  # both now at t=0
    assert [r.time for r in s2] == [0.0, 0.0]
    assert sorted(r.rid for r in s2) == [0, 1]


def test_restricted_to_times():
    s = RequestSchedule([(0, 0.0), (1, 2.0), (2, 4.0)])
    got = s.restricted_to_times(1.0, 3.0)
    assert [r.node for r in got] == [1]


def test_reserved_ids_distinct():
    assert ROOT_RID != NO_RID
    assert ROOT_RID < 0 and NO_RID < 0


def test_request_frozen():
    r = Request(0, 1.0, 0)
    with pytest.raises(AttributeError):
        r.node = 5  # type: ignore[misc]


# ----------------------------------------------------------------------
# columnar storage: index guards
# ----------------------------------------------------------------------
def test_by_rid_rejects_reserved_and_out_of_range_ids():
    s = RequestSchedule([(3, 0.0), (4, 1.0), (5, 2.0)])
    for rid in (ROOT_RID, NO_RID, len(s)):
        with pytest.raises(ScheduleError):
            s.by_rid(rid)


def test_negative_index_and_max_time_keep_sequence_semantics():
    s = RequestSchedule([(5, 2.0), (3, 0.0), (4, 1.0)])
    assert s[-1] == Request(5, 2.0, 2)
    assert s[0] == Request(3, 0.0, 0)
    assert s.max_time() == 2.0
    assert RequestSchedule([(1, 0.0), (2, 0.0)]).max_time() == 0.0


def test_column_accessors_return_fresh_lists():
    s = RequestSchedule([(3, 0.5), (4, 1.5)])
    s.times.append(9.0)
    s.nodes[0] = 99
    assert s.times == [0.5, 1.5]
    assert s.nodes == [3, 4]


def test_validate_nodes_names_the_first_bad_request():
    s = RequestSchedule([(1, 0.0), (7, 1.0), (-1, 2.0)])
    with pytest.raises(ScheduleError, match="request 1 at node 7"):
        s.validate_nodes(5)
    with pytest.raises(ScheduleError, match="request 2 at node -1"):
        s.validate_nodes(8)
    RequestSchedule([]).validate_nodes(1)


def test_from_columns_rejects_mismatched_lengths():
    with pytest.raises(ScheduleError):
        RequestSchedule.from_columns([0, 1], [0.0])


def test_nan_time_rejected():
    with pytest.raises(ScheduleError):
        RequestSchedule([(0, 1.0), (1, float("nan"))])


# ----------------------------------------------------------------------
# differential: the historical pairs sort is the oracle
# ----------------------------------------------------------------------
def historical_requests(pairs):
    """The pre-columnar constructor, vendored verbatim as the oracle."""
    indexed = [(float(t), i, int(v)) for i, (v, t) in enumerate(pairs)]
    indexed.sort(key=lambda x: (x[0], x[1]))
    return tuple(
        Request(node=v, time=t, rid=rid) for rid, (t, _, v) in enumerate(indexed)
    )


def assert_matches_oracle(schedule, pairs):
    want = historical_requests(pairs)
    # repr() tells -0.0 from 0.0, which == does not.
    assert [repr(t) for t in schedule.times] == [repr(r.time) for r in want]
    assert schedule.nodes == [r.node for r in want]
    assert [r.rid for r in schedule] == [r.rid for r in want]
    assert tuple(schedule) == want


_times = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, 1e-300]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.integers(min_value=0, max_value=5),
)
_pairs = st.lists(st.tuples(st.integers(0, 7), _times), max_size=40)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_pairs)
def test_pairs_constructor_matches_historical_sort(pairs):
    assert_matches_oracle(RequestSchedule(pairs), pairs)
    assert_matches_oracle(
        RequestSchedule.from_columns([v for v, _ in pairs], [t for _, t in pairs]),
        pairs,
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_pairs, st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_negative_times_raise_like_the_oracle(pairs, bad):
    pairs = pairs + [(0, -bad - 1e-9)]
    with pytest.raises(ScheduleError):
        historical_requests(pairs)
    with pytest.raises(ScheduleError):
        RequestSchedule(pairs)


# The generators as they were before the columnar rewrite, each returning
# the (node, time) pairs it used to feed the pairs constructor.
def _historical_poisson(num_nodes, count, rate, *, seed=0, nodes=None):
    rng = spawn_rng(seed, f"poisson-{num_nodes}-{count}-{rate}")
    gaps = rng.exponential(1.0 / rate, size=count)
    times = np.cumsum(gaps)
    pool = nodes if nodes is not None else list(range(num_nodes))
    picks = rng.integers(0, len(pool), size=count)
    return [(pool[picks[i]], float(times[i])) for i in range(count)]


def _historical_bursty(num_nodes, bursts, burst_size, burst_span, idle_gap, *, seed=0):
    rng = spawn_rng(seed, f"bursty-{num_nodes}-{bursts}-{burst_size}")
    pairs = []
    t0 = 0.0
    for _ in range(bursts):
        offsets = rng.uniform(0.0, burst_span, size=burst_size)
        picks = rng.integers(0, num_nodes, size=burst_size)
        pairs.extend((int(picks[i]), t0 + float(offsets[i])) for i in range(burst_size))
        t0 += burst_span + idle_gap
    return pairs


def _historical_hotspot(num_nodes, count, rate, hot_nodes, hot_fraction=0.8, *, seed=0):
    rng = spawn_rng(seed, f"hotspot-{num_nodes}-{count}")
    gaps = rng.exponential(1.0 / rate, size=count)
    times = np.cumsum(gaps)
    pairs = []
    for i in range(count):
        if rng.random() < hot_fraction:
            v = hot_nodes[int(rng.integers(0, len(hot_nodes)))]
        else:
            v = int(rng.integers(0, num_nodes))
        pairs.append((v, float(times[i])))
    return pairs


def _historical_random_times(num_nodes, count, horizon, *, seed=0, continuous=True):
    rng = spawn_rng(seed, f"random-{num_nodes}-{count}-{horizon}")
    picks = rng.integers(0, num_nodes, size=count)
    if continuous:
        times = rng.uniform(0.0, horizon, size=count)
    else:
        times = rng.integers(0, max(1, int(horizon)) + 1, size=count).astype(float)
    return [(int(picks[i]), float(times[i])) for i in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_generators_match_historical_pairs(seed):
    nodes = [(seed * 5 + k) % 9 for k in range(12)]
    cases = [
        (one_shot(nodes), [(v, 0.0) for v in nodes]),
        (
            sequential(nodes, gap=1.5, start=0.25),
            [(v, 0.25 + i * 1.5) for i, v in enumerate(nodes)],
        ),
        (poisson(16, 200, 3.0, seed=seed), _historical_poisson(16, 200, 3.0, seed=seed)),
        (
            poisson(16, 50, 0.5, seed=seed, nodes=[2, 4, 8]),
            _historical_poisson(16, 50, 0.5, seed=seed, nodes=[2, 4, 8]),
        ),
        (
            bursty(10, 4, 25, 2.0, 5.0, seed=seed),
            _historical_bursty(10, 4, 25, 2.0, 5.0, seed=seed),
        ),
        (
            hotspot(12, 120, 2.0, [0, 1], 0.7, seed=seed),
            _historical_hotspot(12, 120, 2.0, [0, 1], 0.7, seed=seed),
        ),
        (
            random_times(8, 150, 10.0, seed=seed),
            _historical_random_times(8, 150, 10.0, seed=seed),
        ),
        (
            random_times(8, 150, 6.0, seed=seed, continuous=False),
            _historical_random_times(8, 150, 6.0, seed=seed, continuous=False),
        ),
    ]
    for schedule, pairs in cases:
        assert_matches_oracle(schedule, pairs)


def test_shifted_matches_historical_rebuild():
    s = random_times(6, 40, 8.0, seed=3, continuous=False)
    late = [r.rid for r in s if r.time >= 4.0] + [ROOT_RID, 10_000]
    pairs = [(r.node, r.time - 2.0 if r.rid in set(late) else r.time) for r in s]
    assert_matches_oracle(s.shifted(late, -2.0), pairs)
