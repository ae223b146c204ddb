"""Latency models for network links.

The paper analyses two communication models:

* **synchronous** (§3.1): every edge has unit latency and messages are
  processed immediately on arrival — :class:`UnitLatency`;
* **asynchronous** (§3.8): message delays are arbitrary but, for the
  analysis, scaled so the slowest message between adjacent nodes takes one
  time unit — :class:`UniformLatency` and :class:`ExponentialCappedLatency`
  produce such executions.

A latency model maps ``(src, dst, edge_weight, rng)`` to a delay sample.
Deterministic models ignore the RNG.  FIFO ordering per directed link is
enforced by the channel layer, not here.

:func:`link_sampler` is the flat engines' per-send delay source.  For the
two stochastic models it draws raw samples in blocks of :data:`BLOCK`:
an array fill of numpy's ``Generator`` consumes the bitstream exactly
like the same number of scalar calls, so buffered raws replay the scalar
draw order of :meth:`LatencyModel.sample` (a scalar ``rng.uniform`` call
costs ~1.5 µs, a buffered raw ~0.1 µs).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain, repeat

import numpy as np

from repro.errors import NetworkError

__all__ = [
    "LatencyModel",
    "UnitLatency",
    "WeightLatency",
    "ScaledWeightLatency",
    "UniformLatency",
    "ExponentialCappedLatency",
    "BLOCK",
    "block_draws",
    "link_sampler",
]

#: Raw draws per block refill of :func:`block_draws`.
BLOCK = 4096


class LatencyModel(ABC):
    """Strategy object producing per-message link delays."""

    #: True when the model can produce different delays for identical sends
    #: (used by tests to decide which invariants apply).
    stochastic: bool = False

    @abstractmethod
    def sample(
        self, src: int, dst: int, weight: float, rng: np.random.Generator
    ) -> float:
        """Delay for one message crossing link ``src -> dst``."""

    def max_delay(self, weight: float) -> float:
        """Upper bound on any sample for a link of the given weight.

        The asynchronous analysis (§3.8) normalises delays so this bound is
        the "one time unit"; tests use it to check executions respect it.
        """
        return weight


class UnitLatency(LatencyModel):
    """Synchronous model: every link takes exactly one time unit."""

    def sample(self, src, dst, weight, rng) -> float:  # noqa: D102
        return 1.0

    def max_delay(self, weight: float) -> float:  # noqa: D102
        return 1.0


class WeightLatency(LatencyModel):
    """Deterministic model: delay equals the link's weight."""

    def sample(self, src, dst, weight, rng) -> float:  # noqa: D102
        return weight


class ScaledWeightLatency(LatencyModel):
    """Deterministic model: delay is ``factor * weight``."""

    def __init__(self, factor: float) -> None:
        if factor <= 0:
            raise NetworkError(f"latency factor must be positive, got {factor}")
        self.factor = float(factor)

    def sample(self, src, dst, weight, rng) -> float:  # noqa: D102
        return self.factor * weight

    def max_delay(self, weight: float) -> float:  # noqa: D102
        return self.factor * weight


class UniformLatency(LatencyModel):
    """Asynchronous model: delay uniform in ``[lo, hi] * weight``.

    With ``hi = 1`` this realises the paper's normalised asynchronous
    executions: every message arrives within one (weighted) time unit.
    """

    stochastic = True

    def __init__(self, lo: float = 0.1, hi: float = 1.0) -> None:
        if not 0 < lo <= hi:
            raise NetworkError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
        self.lo = float(lo)
        self.hi = float(hi)

    def sample(self, src, dst, weight, rng) -> float:  # noqa: D102
        return weight * rng.uniform(self.lo, self.hi)

    def max_delay(self, weight: float) -> float:  # noqa: D102
        return self.hi * weight


class ExponentialCappedLatency(LatencyModel):
    """Asynchronous model: exponential delays truncated to ``[floor, cap]``.

    Mimics heavy-ish tails (slow stragglers) while keeping the normalised
    "delay <= cap * weight" guarantee the asynchronous analysis assumes.
    """

    stochastic = True

    def __init__(self, mean: float = 0.3, cap: float = 1.0, floor: float = 0.01) -> None:
        if not 0 < floor <= cap:
            raise NetworkError(f"need 0 < floor <= cap, got {floor}, {cap}")
        if mean <= 0:
            raise NetworkError(f"mean must be positive, got {mean}")
        self.mean = float(mean)
        self.cap = float(cap)
        self.floor = float(floor)

    def sample(self, src, dst, weight, rng) -> float:  # noqa: D102
        raw = rng.exponential(self.mean)
        return weight * min(max(raw, self.floor), self.cap)

    def max_delay(self, weight: float) -> float:  # noqa: D102
        return self.cap * weight


def block_draws(fill):
    """A ``() -> float`` handing out ``fill(BLOCK)``'s raws in order.

    ``fill(size)`` must advance its generator exactly like ``size`` scalar
    draws of the same distribution (true for numpy's array fills), so the
    raws are those the scalar calls would have returned.  A new block is
    drawn only when the previous one is used up.
    """
    return chain.from_iterable(
        fill(BLOCK).tolist() for _ in repeat(None)
    ).__next__


def link_sampler(model: LatencyModel, rng: np.random.Generator):
    """A ``(src, dst, weight) -> float`` replaying ``model.sample`` on ``rng``.

    Dispatch is on the exact type: the two stochastic models draw their
    raws through :func:`block_draws` and apply ``sample``'s own transform;
    any other model, including a subclass that overrides ``sample``, is
    called per send.
    """
    t = type(model)
    if t is UniformLatency:
        lo, hi = model.lo, model.hi
        draw = block_draws(lambda size: rng.uniform(lo, hi, size))
        return lambda src, dst, w: w * draw()
    if t is ExponentialCappedLatency:
        mean, floor, cap = model.mean, model.floor, model.cap
        draw = block_draws(lambda size: rng.exponential(mean, size))
        return lambda src, dst, w: w * min(max(draw(), floor), cap)
    sample = model.sample
    return lambda src, dst, w: sample(src, dst, w, rng)
