"""Valuation models: parametric generators of goods bundles.

The paper assumes the two value functions ``Vs`` and ``Vc`` are given.  For
experiments we need families of bundles whose shapes can be controlled: how
large the per-item surplus is, how correlated cost and value are, whether a
few items dominate the bundle, and so on.  Each :class:`ValuationModel` is
one array kernel over a fixed number of ``rng.random()`` draws per item,
taken in item order from a supplied generator, so experiments are
reproducible from a seed.  ``rng.uniform(a, b)`` is ``a + (b - a) *
rng.random()``, which the kernels repeat in float64, bit for bit.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.goods import GoodsBundle
from repro.exceptions import WorkloadError

__all__ = [
    "ValuationModel",
    "UniformValuationModel",
    "CorrelatedValuationModel",
    "MarginValuationModel",
    "BimodalValuationModel",
    "make_bundle",
]


class ValuationModel(abc.ABC):
    """Abstract generator of per-item valuations ``(Vs(x), Vc(x))``."""

    #: ``rng.random()`` draws one item takes.
    draws: int = 2

    @abc.abstractmethod
    def kernel(self, *draws: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(supplier_costs, consumer_values)`` from an item's ``draws`` arrays."""

    def sample_columns(
        self, rng: random.Random, n: int, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(costs, values)``, each ``(n, size)``: ``n`` bundles' items in draw
        order, clamped as ``max(0.0, x)`` clamps (-0.0 and NaN become 0.0)."""
        if size < 0:
            raise WorkloadError(f"bundle size must be >= 0, got {size}")
        draws = np.fromiter(iter(rng.random, None), np.float64, n * size * self.draws)
        columns = draws.reshape(n, size, self.draws).transpose(2, 0, 1)
        with np.errstate(all="ignore"):  # as float arithmetic, which never warns
            costs, values = self.kernel(*columns)
        return np.where(costs > 0.0, costs, 0.0), np.where(values > 0.0, values, 0.0)

    def sample_bundle(
        self, rng: random.Random, size: int, prefix: str = "good"
    ) -> GoodsBundle:
        """Sample a bundle of ``size`` items using ``rng``."""
        costs, values = self.sample_columns(rng, 1, size)
        return GoodsBundle.from_valuations(costs[0], values[0], prefix)


@dataclass
class UniformValuationModel(ValuationModel):
    """Costs and values drawn independently and uniformly.

    ``supplier_cost ~ U(cost_low, cost_high)`` and
    ``consumer_value ~ U(value_low, value_high)``, independently per item.
    """

    cost_low: float = 1.0
    cost_high: float = 10.0
    value_low: float = 1.0
    value_high: float = 10.0

    def __post_init__(self) -> None:
        if self.cost_low < 0 or self.value_low < 0:
            raise WorkloadError("valuation bounds must be non-negative")
        if self.cost_high < self.cost_low or self.value_high < self.value_low:
            raise WorkloadError("upper bounds must not be below lower bounds")

    def kernel(self, *draws: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        cost = self.cost_low + (self.cost_high - self.cost_low) * draws[0]
        return cost, self.value_low + (self.value_high - self.value_low) * draws[1]


@dataclass
class MarginValuationModel(ValuationModel):
    """Consumer value derived from the supplier cost through a margin.

    ``supplier_cost ~ U(cost_low, cost_high)`` and
    ``consumer_value = supplier_cost * (1 + margin)`` with
    ``margin ~ U(margin_low, margin_high)``.  Negative margins create
    deficit items (items the consumer values below their cost) which stress
    the planner: they are the reason fully safe sequences frequently do not
    exist.
    """

    cost_low: float = 1.0
    cost_high: float = 10.0
    margin_low: float = -0.2
    margin_high: float = 0.5

    def __post_init__(self) -> None:
        if self.cost_low < 0:
            raise WorkloadError("cost bounds must be non-negative")
        if self.cost_high < self.cost_low:
            raise WorkloadError("cost_high must be >= cost_low")
        if self.margin_high < self.margin_low:
            raise WorkloadError("margin_high must be >= margin_low")
        if self.margin_low < -1.0:
            raise WorkloadError("margin_low must be >= -1 (values cannot go negative)")

    def kernel(self, *draws: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        cost = self.cost_low + (self.cost_high - self.cost_low) * draws[0]
        margin = self.margin_low + (self.margin_high - self.margin_low) * draws[1]
        return cost, cost * (1.0 + margin)


@dataclass
class CorrelatedValuationModel(ValuationModel):
    """Costs and values drawn with a configurable linear correlation.

    The consumer value is a convex combination of the supplier cost and an
    independent uniform draw: ``value = correlation * cost + (1 -
    correlation) * U(value_low, value_high)``, then scaled by ``value_scale``.
    ``correlation = 1`` produces zero-surplus items (before scaling),
    ``correlation = 0`` reduces to independent draws.
    """

    cost_low: float = 1.0
    cost_high: float = 10.0
    value_low: float = 1.0
    value_high: float = 10.0
    correlation: float = 0.5
    value_scale: float = 1.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.correlation <= 1.0:
            raise WorkloadError("correlation must be in [0, 1]")
        if self.value_scale < 0:
            raise WorkloadError("value_scale must be non-negative")

    def kernel(self, *draws: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        cost = self.cost_low + (self.cost_high - self.cost_low) * draws[0]
        independent = self.value_low + (self.value_high - self.value_low) * draws[1]
        value = self.correlation * cost + (1.0 - self.correlation) * independent
        return cost, value * self.value_scale


@dataclass
class BimodalValuationModel(ValuationModel):
    """A mixture of many small items and a few large ("big ticket") items.

    With probability ``big_fraction`` an item is drawn from the big range,
    otherwise from the small range; the consumer value applies the given
    margin.  Bundles dominated by one expensive item are the classic case in
    which no fully safe schedule exists.
    """

    small_cost: Tuple[float, float] = (1.0, 5.0)
    big_cost: Tuple[float, float] = (20.0, 50.0)
    big_fraction: float = 0.2
    margin: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.big_fraction <= 1.0:
            raise WorkloadError("big_fraction must be in [0, 1]")
        if self.margin < -1.0:
            raise WorkloadError("margin must be >= -1")

    def kernel(self, *draws: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        big = draws[0] < self.big_fraction
        low, high = (np.where(big, *ends) for ends in zip(self.big_cost, self.small_cost))
        cost = low + (high - low) * draws[1]
        return cost, cost * (1.0 + self.margin)


def make_bundle(
    model: ValuationModel,
    size: int,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    prefix: str = "good",
) -> GoodsBundle:
    """Convenience wrapper: sample a bundle from ``model``.

    Exactly one of ``seed`` or ``rng`` may be supplied; with neither, a fresh
    unseeded generator is used (not reproducible — fine for interactive use).
    """
    if seed is not None and rng is not None:
        raise WorkloadError("pass either seed or rng, not both")
    generator = rng if rng is not None else random.Random(seed)
    return model.sample_bundle(generator, size, prefix=prefix)
