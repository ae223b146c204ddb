"""Unit tests for latency models."""

import pytest

import repro.net.latency as latency_mod
from repro.errors import NetworkError
from repro.net.latency import (
    ExponentialCappedLatency,
    ScaledWeightLatency,
    UniformLatency,
    UnitLatency,
    WeightLatency,
    block_draws,
    link_sampler,
)
from repro.sim.rng import spawn_rng


@pytest.fixture
def rng():
    return spawn_rng(0, "latency-tests")


def test_unit_latency_always_one(rng):
    m = UnitLatency()
    assert m.sample(0, 1, 7.5, rng) == 1.0
    assert m.max_delay(7.5) == 1.0
    assert not m.stochastic


def test_weight_latency_returns_weight(rng):
    m = WeightLatency()
    assert m.sample(0, 1, 2.5, rng) == 2.5
    assert m.max_delay(2.5) == 2.5


def test_scaled_weight_latency(rng):
    m = ScaledWeightLatency(0.5)
    assert m.sample(0, 1, 4.0, rng) == 2.0
    assert m.max_delay(4.0) == 2.0


def test_scaled_weight_rejects_nonpositive_factor():
    with pytest.raises(NetworkError):
        ScaledWeightLatency(0.0)


def test_uniform_latency_within_bounds(rng):
    m = UniformLatency(0.2, 1.0)
    samples = [m.sample(0, 1, 3.0, rng) for _ in range(500)]
    assert all(0.6 - 1e-12 <= s <= 3.0 + 1e-12 for s in samples)
    assert m.max_delay(3.0) == 3.0
    assert m.stochastic


def test_uniform_latency_validates_range():
    with pytest.raises(NetworkError):
        UniformLatency(0.0, 1.0)
    with pytest.raises(NetworkError):
        UniformLatency(0.9, 0.5)


def test_exponential_capped_within_bounds(rng):
    m = ExponentialCappedLatency(mean=0.3, cap=1.0, floor=0.05)
    samples = [m.sample(0, 1, 2.0, rng) for _ in range(500)]
    assert all(0.1 - 1e-12 <= s <= 2.0 + 1e-12 for s in samples)
    assert m.max_delay(2.0) == 2.0


def test_exponential_capped_validates():
    with pytest.raises(NetworkError):
        ExponentialCappedLatency(mean=-1.0)
    with pytest.raises(NetworkError):
        ExponentialCappedLatency(floor=2.0, cap=1.0)


def test_stochastic_models_respect_normalised_max_delay(rng):
    """§3.8: the analysis scales delays so the slowest message takes 1."""
    for model in (UniformLatency(0.1, 1.0), ExponentialCappedLatency()):
        for _ in range(200):
            assert model.sample(0, 1, 1.0, rng) <= model.max_delay(1.0) + 1e-12


class _OffsetUniform(UniformLatency):
    """A subclass overriding ``sample``: the sampler must call it per send."""

    def sample(self, src, dst, weight, rng):
        return super().sample(src, dst, weight, rng) + src


@pytest.mark.parametrize(
    "model",
    [
        UniformLatency(0.2, 1.0),
        ExponentialCappedLatency(),
        ExponentialCappedLatency(mean=0.5, cap=0.6, floor=0.2),
        _OffsetUniform(0.1, 0.9),
        ScaledWeightLatency(1.5),
    ],
)
def test_link_sampler_replays_scalar_draws_across_refills(model, monkeypatch):
    """Block draws equal scalar ``sample`` draws, across small-block refills."""
    monkeypatch.setattr(latency_mod, "BLOCK", 5)
    scalar = spawn_rng(9, "network-latency")
    draw = link_sampler(model, spawn_rng(9, "network-latency"))
    sends = [(k % 4, (k + 1) % 4, 0.5 + (k % 3)) for k in range(23)]
    got = [draw(s, d, w) for s, d, w in sends]
    assert got == [model.sample(s, d, w, scalar) for s, d, w in sends]
    assert all(type(x) is float for x in got)


def test_block_draws_are_lazy_and_in_order(monkeypatch):
    """A block is drawn only when the previous one is used up."""
    monkeypatch.setattr(latency_mod, "BLOCK", 4)
    sizes = []

    def fill(size):
        sizes.append(size)
        return rng.random(size)

    rng = spawn_rng(2, "fault-loss")
    scalar = spawn_rng(2, "fault-loss")
    draw = block_draws(fill)
    assert sizes == []
    got = [draw() for _ in range(9)]
    assert sizes == [4, 4, 4]
    assert got == [float(scalar.random()) for _ in range(9)]
