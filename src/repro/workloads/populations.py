"""Peer population generators.

The strategy-comparison and community-dynamics experiments sweep over the
composition of the population: what fraction of peers is honest, maliciously
defecting, opportunistic, or probabilistically unreliable, and whether the
dishonest peers additionally pollute the complaint store.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.exceptions import WorkloadError
from repro.simulation.behaviors import (
    BehaviorModel,
    FluctuatingBehavior,
    HonestBehavior,
    OpportunisticBehavior,
    ProbabilisticBehavior,
    RationalDefectorBehavior,
)
from repro.simulation.peer import CommunityPeer, TrustMethod
from repro.trust import TrustBackend

__all__ = ["PopulationSpec", "build_population", "population_factory"]


@dataclass
class PopulationSpec:
    """Composition of a community population.

    The five fractions must sum to at most 1; the remainder becomes
    probabilistically unreliable peers with honesty ``probabilistic_honesty``.
    ``fluctuating_fraction`` adds "milking" peers: honest until
    ``fluctuating_switch_time`` (building reputation), defecting with
    probability ``1 - fluctuating_later_honesty`` afterwards.
    """

    size: int = 20
    honest_fraction: float = 0.6
    dishonest_fraction: float = 0.2
    opportunist_fraction: float = 0.0
    probabilistic_fraction: float = 0.2
    fluctuating_fraction: float = 0.0
    probabilistic_honesty: float = 0.85
    opportunist_threshold: float = 5.0
    fluctuating_initial_honesty: float = 1.0
    fluctuating_later_honesty: float = 0.1
    fluctuating_switch_time: float = 25.0
    false_complaint_probability: float = 0.0
    defection_penalty: float = 0.0
    id_prefix: str = "peer"

    def __post_init__(self) -> None:
        if self.size < 2:
            raise WorkloadError(f"population size must be >= 2, got {self.size}")
        fractions = (
            self.honest_fraction,
            self.dishonest_fraction,
            self.opportunist_fraction,
            self.probabilistic_fraction,
            self.fluctuating_fraction,
        )
        # ``>= 0`` is false for NaN; an infinite fraction fails the sum check.
        if not all(fraction >= 0 for fraction in fractions):
            raise WorkloadError("population fractions must be non-negative numbers")
        total = sum(fractions)
        if total > 1.0 + 1e-9:
            raise WorkloadError(
                "population fractions must sum to at most 1, but "
                f"dishonest_fraction {self.dishonest_fraction:g} brings them "
                f"to {total:.6g}"
            )
        if not 0.0 <= self.probabilistic_honesty <= 1.0:
            raise WorkloadError("probabilistic_honesty must lie in [0, 1]")
        if not 0.0 <= self.false_complaint_probability <= 1.0:
            raise WorkloadError("false_complaint_probability must lie in [0, 1]")
        if not 0.0 <= self.defection_penalty < math.inf:
            raise WorkloadError("defection_penalty must be finite and >= 0")

    def behavior_for(self, index: int, rng: random.Random) -> BehaviorModel:
        """Assign a behaviour to the ``index``-th peer (deterministic slots).

        Peers are assigned in blocks (honest first, then dishonest, then
        opportunists, then fluctuating, then probabilistic) so a given spec
        always produces the same composition regardless of the RNG; the RNG
        is only used for the residual class when the fractions do not
        exactly divide the size.
        """
        honest_count = round(self.size * self.honest_fraction)
        dishonest_count = round(self.size * self.dishonest_fraction)
        opportunist_count = round(self.size * self.opportunist_fraction)
        fluctuating_count = round(self.size * self.fluctuating_fraction)
        if index < honest_count:
            return HonestBehavior()
        if index < honest_count + dishonest_count:
            return RationalDefectorBehavior(
                false_complaint_probability=self.false_complaint_probability
            )
        if index < honest_count + dishonest_count + opportunist_count:
            return OpportunisticBehavior(threshold=self.opportunist_threshold)
        if index < (
            honest_count + dishonest_count + opportunist_count + fluctuating_count
        ):
            return FluctuatingBehavior(
                initial_honesty=self.fluctuating_initial_honesty,
                later_honesty=self.fluctuating_later_honesty,
                switch_time=self.fluctuating_switch_time,
            )
        return ProbabilisticBehavior(honesty=self.probabilistic_honesty)


def build_population(
    spec: PopulationSpec,
    complaint_store: Optional[TrustBackend] = None,
    seed: int = 0,
    trust_method: str = TrustMethod.BETA,
) -> List[CommunityPeer]:
    """Build the peers described by ``spec``.

    When ``complaint_store`` (a complaint backend such as
    ``create_backend("complaint", metric_mode="balanced")``) is supplied
    every peer files complaints into (and reads from) that shared store,
    modelling the community-wide complaint system; otherwise each peer keeps
    a private store (direct evidence only).
    ``trust_method`` selects the trust backend every peer consults (one of
    :data:`repro.simulation.peer.TrustMethod.ALL`).  Each peer's own
    backends are plain; only a shared ``complaint_store`` may be sharded.
    """
    rng = random.Random(seed)
    peers: List[CommunityPeer] = []
    for index in range(spec.size):
        behavior = spec.behavior_for(index, rng)
        peers.append(
            CommunityPeer(
                peer_id=f"{spec.id_prefix}-{index:03d}",
                behavior=behavior,
                complaint_store=complaint_store,
                defection_penalty=spec.defection_penalty,
                trust_method=trust_method,
            )
        )
    return peers


def population_factory(
    spec: PopulationSpec,
    complaint_store: Optional[TrustBackend] = None,
    seed: int = 0,
    trust_method: str = TrustMethod.BETA,
) -> Callable[[int], CommunityPeer]:
    """A factory for churn arrivals drawing behaviours from the same spec."""
    rng = random.Random(seed + 1)

    def factory(counter: int) -> CommunityPeer:
        index = rng.randrange(spec.size)
        behavior = spec.behavior_for(index, rng)
        return CommunityPeer(
            peer_id=f"{spec.id_prefix}-new-{counter}",
            behavior=behavior,
            complaint_store=complaint_store,
            defection_penalty=spec.defection_penalty,
            trust_method=trust_method,
        )

    return factory
