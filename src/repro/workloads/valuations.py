"""Named valuation workloads for the application domains the paper mentions.

The introduction motivates three settings: eBay-style auctions, exchanges of
MP3 files for money in a P2P system, and trades of services in a (mobile)
teamwork environment.  Each has a characteristic valuation structure, which
these factories encode so experiments and examples can refer to them by name.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.goods import GoodsBundle
from repro.core.valuation import (
    BimodalValuationModel,
    CorrelatedValuationModel,
    MarginValuationModel,
    UniformValuationModel,
    ValuationModel,
    make_bundle,
)
from repro.exceptions import WorkloadError

__all__ = [
    "ebay_auction_valuations",
    "digital_goods_valuations",
    "teamwork_service_valuations",
    "stress_deficit_valuations",
    "mixed_goods_valuations",
    "MixtureValuationModel",
    "valuation_workload",
    "workload_bundle",
]


class MixtureValuationModel(ValuationModel):
    """Draws each item from one of several component valuation models.

    Models a marketplace trading heterogeneous goods (physical big-ticket
    items next to near-free digital goods next to services): every item of a
    bundle picks its component model according to the mixture weights, so a
    single bundle can mix radically different cost/value shapes — the
    workload that stresses exchange scheduling and trust weighting the most.
    An item's first draw picks its component; the component's draws follow,
    so every component must take the same number of draws.
    """

    def __init__(
        self,
        components: Sequence[ValuationModel],
        weights: Optional[Sequence[float]] = None,
    ):
        if not components:
            raise WorkloadError("a mixture needs at least one component model")
        if weights is None:
            weights = [1.0] * len(components)
        if len(weights) != len(components):
            raise WorkloadError("weights must match the number of components")
        if any(weight < 0 for weight in weights) or sum(weights) <= 0:
            raise WorkloadError("mixture weights must be non-negative, sum > 0")
        if len({component.draws for component in components}) != 1:
            raise WorkloadError("mixture components must take equal draws per item")
        self._components = tuple(components)
        self.draws = 1 + components[0].draws
        total = float(sum(weights))
        self._cumulative = np.array(
            [sum(weights[: index + 1]) / total for index in range(len(weights))]
        )

    def kernel(self, *draws: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        pick = np.searchsorted(self._cumulative, draws[0])  # first bound >= draw
        pick = np.minimum(pick, len(self._components) - 1)[None]
        pairs = [component.kernel(*draws[1:]) for component in self._components]
        costs, values = (
            np.take_along_axis(np.stack(column), pick, 0)[0] for column in zip(*pairs)
        )
        return costs, values


def mixed_goods_valuations() -> ValuationModel:
    """Heterogeneous marketplace: physical, digital and service goods mixed."""
    return MixtureValuationModel(
        components=(
            ebay_auction_valuations(),
            digital_goods_valuations(),
            teamwork_service_valuations(),
        ),
        weights=(0.4, 0.35, 0.25),
    )


def ebay_auction_valuations() -> ValuationModel:
    """Physical goods: substantial supplier cost, moderate positive margins.

    A few "big ticket" items dominate the bundle value, which is exactly the
    shape under which fully safe schedules rarely exist.
    """
    return BimodalValuationModel(
        small_cost=(2.0, 8.0), big_cost=(25.0, 60.0), big_fraction=0.25, margin=0.35
    )


def digital_goods_valuations() -> ValuationModel:
    """MP3-style digital goods: negligible marginal cost, high consumer value.

    With near-zero supplier cost almost every schedule is safe for the
    consumer side; the interesting exposure is the payment side.
    """
    return UniformValuationModel(
        cost_low=0.0, cost_high=0.5, value_low=0.5, value_high=3.0
    )


def teamwork_service_valuations() -> ValuationModel:
    """Teamwork services: costly to perform, value strongly partner-specific.

    Costs and values are only weakly correlated and some tasks are worth less
    to the consumer than they cost the supplier (deficit items), so the
    bundle-level surplus hides item-level losses.
    """
    return CorrelatedValuationModel(
        cost_low=3.0,
        cost_high=15.0,
        value_low=2.0,
        value_high=20.0,
        correlation=0.3,
        value_scale=1.05,
    )


def stress_deficit_valuations() -> ValuationModel:
    """A stress workload with many deficit items (hard scheduling instances)."""
    return MarginValuationModel(
        cost_low=2.0, cost_high=12.0, margin_low=-0.5, margin_high=0.4
    )


_WORKLOADS: Dict[str, ValuationModel] = {}


def valuation_workload(name: str) -> ValuationModel:
    """Look up a named valuation workload.

    Valid names: ``ebay``, ``digital``, ``teamwork``, ``stress``, ``mixed``.
    """
    factories = {
        "ebay": ebay_auction_valuations,
        "digital": digital_goods_valuations,
        "teamwork": teamwork_service_valuations,
        "stress": stress_deficit_valuations,
        "mixed": mixed_goods_valuations,
    }
    if name not in factories:
        raise WorkloadError(
            f"unknown valuation workload {name!r}; valid names: {sorted(factories)}"
        )
    return factories[name]()


def workload_bundle(
    name: str, size: int, seed: Optional[int] = None
) -> GoodsBundle:
    """Sample one bundle from a named workload."""
    return make_bundle(valuation_workload(name), size, seed=seed)
