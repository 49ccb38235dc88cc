"""Behaviour models of community members.

During the execution of a (possibly not fully safe) exchange schedule every
party repeatedly faces the choice "perform the next action or walk away with
what I have".  A behaviour model answers that question with one declared
rule, :meth:`BehaviorModel.defection_rule`: a temptation threshold and an
optional honesty probability.  The batched executor
(:func:`~repro.marketplace.transaction.execute_many`) reads the rule once per
exchange and applies it to every step as array operations; the scalar
:meth:`BehaviorModel.will_defect` is derived from the same rule.  A model
also carries the ground-truth honesty probability the trust-learning
experiments compare estimates against, and whether the peer pollutes the
complaint system with spurious complaints (the threat model of the
complaint-based trust scheme).
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.exceptions import SimulationError
from repro.trust.beta import BetaBelief

__all__ = [
    "BehaviorModel",
    "HonestBehavior",
    "RationalDefectorBehavior",
    "OpportunisticBehavior",
    "ProbabilisticBehavior",
    "FluctuatingBehavior",
    "WitnessReportPolicy",
    "TruthfulWitness",
    "CoalitionWitness",
]


class BehaviorModel(abc.ABC):
    """Decides whether a peer defects at a decision point of an exchange."""

    #: Probability of filing a spurious complaint after a *successful*
    #: interaction (malicious peers use this to discredit honest partners).
    false_complaint_probability: float = 0.0

    @abc.abstractmethod
    def defection_rule(self, time: float = 0.0) -> Tuple[float, Optional[float]]:
        """``(threshold, honesty)``: when the peer defects at time ``time``.

        At a decision point the peer is *tempted* when its own temptation in
        the current state (positive when defecting is myopically
        profitable) exceeds ``threshold``.  A tempted peer defects outright
        when ``honesty`` is ``None``, and otherwise when one
        ``rng.random()`` draw exceeds ``honesty``; an untempted peer draws
        nothing.
        """

    def will_defect(
        self,
        temptation: float,
        value_at_stake: float,
        rng: random.Random,
        time: float = 0.0,
    ) -> bool:
        """Whether the peer defects now, by :meth:`defection_rule`.

        ``temptation`` is the peer's own temptation in the current state;
        ``value_at_stake`` (what completing would gain it) is read by no
        rule.
        """
        threshold, honesty = self.defection_rule(time)
        if not temptation > threshold:
            return False
        return honesty is None or rng.random() > honesty

    @property
    @abc.abstractmethod
    def honesty_probability(self) -> float:
        """Ground-truth probability of honest behaviour (for evaluation)."""

    def describe(self) -> str:
        return type(self).__name__


class HonestBehavior(BehaviorModel):
    """Never defects, regardless of temptation."""

    def defection_rule(self, time: float = 0.0) -> Tuple[float, Optional[float]]:
        return math.inf, None

    @property
    def honesty_probability(self) -> float:
        return 1.0


@dataclass
class RationalDefectorBehavior(BehaviorModel):
    """Defects whenever defection is myopically profitable (temptation > 0).

    This is the worst-case partner the safe-exchange analysis protects
    against; with a fully safe schedule it never finds a profitable moment.
    ``false_complaint_probability`` optionally makes it also pollute the
    complaint store after honest interactions.
    """

    false_complaint_probability: float = 0.0
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.false_complaint_probability <= 1.0:
            raise SimulationError("false_complaint_probability must lie in [0, 1]")

    def defection_rule(self, time: float = 0.0) -> Tuple[float, Optional[float]]:
        return self.epsilon, None

    @property
    def honesty_probability(self) -> float:
        return 0.0

    def describe(self) -> str:
        return "rational-defector"


@dataclass
class OpportunisticBehavior(BehaviorModel):
    """Defects only when the temptation exceeds a personal threshold.

    Models partners that forgo small gains (to protect their reputation or
    out of inertia) but cannot resist large ones.
    """

    threshold: float = 5.0
    false_complaint_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise SimulationError(f"threshold must be >= 0, got {self.threshold}")
        if not 0.0 <= self.false_complaint_probability <= 1.0:
            raise SimulationError("false_complaint_probability must lie in [0, 1]")

    def defection_rule(self, time: float = 0.0) -> Tuple[float, Optional[float]]:
        return self.threshold, None

    @property
    def honesty_probability(self) -> float:
        # Interpreted against the typical exposure scale of the experiments;
        # for evaluation purposes an opportunist is "mostly honest".
        return 0.5

    def describe(self) -> str:
        return f"opportunistic(threshold={self.threshold})"


@dataclass
class ProbabilisticBehavior(BehaviorModel):
    """Defects with probability ``1 - honesty`` whenever tempted."""

    honesty: float = 0.9
    false_complaint_probability: float = 0.0
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.honesty <= 1.0:
            raise SimulationError(f"honesty must lie in [0, 1], got {self.honesty}")
        if not 0.0 <= self.false_complaint_probability <= 1.0:
            raise SimulationError("false_complaint_probability must lie in [0, 1]")

    def defection_rule(self, time: float = 0.0) -> Tuple[float, Optional[float]]:
        return self.epsilon, self.honesty

    @property
    def honesty_probability(self) -> float:
        return self.honesty

    def describe(self) -> str:
        return f"probabilistic(honesty={self.honesty})"


@dataclass
class FluctuatingBehavior(BehaviorModel):
    """Honesty oscillates over time between two levels.

    Models peers whose behaviour changes (e.g. an account takeover or a
    "milking" strategy after building reputation): before ``switch_time``
    the peer behaves with ``initial_honesty``, afterwards with
    ``later_honesty``.
    """

    initial_honesty: float = 1.0
    later_honesty: float = 0.1
    switch_time: float = 50.0
    false_complaint_probability: float = 0.0
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("initial_honesty", "later_honesty"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must lie in [0, 1], got {value}")
        if self.switch_time < 0:
            raise SimulationError("switch_time must be >= 0")

    def honesty_at(self, time: float) -> float:
        return self.initial_honesty if time < self.switch_time else self.later_honesty

    def defection_rule(self, time: float = 0.0) -> Tuple[float, Optional[float]]:
        return self.epsilon, self.honesty_at(time)

    @property
    def honesty_probability(self) -> float:
        return self.later_honesty

    def describe(self) -> str:
        return (
            f"fluctuating({self.initial_honesty}->{self.later_honesty}"
            f"@{self.switch_time})"
        )


class WitnessReportPolicy(abc.ABC):
    """How a peer answers witness-report requests (its *reporting* ground
    truth, orthogonal to its defection behaviour).

    Given the peer's true belief about a subject, the policy returns the
    belief it actually puts on the wire.  Truthful peers forward their
    belief; coalition members forge inflated beliefs about each other and
    bad-mouth outsiders — the witness-pollution threat model the discounted
    aggregation path is built to withstand.
    """

    #: Whether :meth:`report` may put something other than the peer's true
    #: belief on the wire; a policy that never forges is not consulted.
    forges: bool = True

    @abc.abstractmethod
    def report(self, subject_id: str, belief: BetaBelief) -> BetaBelief:
        """The belief reported about ``subject_id`` (possibly forged)."""

    def describe(self) -> str:
        return type(self).__name__


class TruthfulWitness(WitnessReportPolicy):
    """Reports the peer's true belief unchanged."""

    forges = False

    def report(self, subject_id: str, belief: BetaBelief) -> BetaBelief:
        return belief


@dataclass
class CoalitionWitness(WitnessReportPolicy):
    """A Sybil-coalition member's reporting strategy.

    Vouches for fellow coalition members with a fabricated strong-positive
    belief of ``vouch_strength`` pseudo-observations, and inverts its true
    belief about everyone else (bad-mouthing).
    """

    members: FrozenSet[str] = frozenset()
    vouch_strength: float = 20.0

    def __post_init__(self) -> None:
        if self.vouch_strength <= 0:
            raise SimulationError(
                f"vouch_strength must be > 0, got {self.vouch_strength}"
            )
        self.members = frozenset(self.members)

    def report(self, subject_id: str, belief: BetaBelief) -> BetaBelief:
        if subject_id in self.members:
            return BetaBelief(alpha=1.0 + self.vouch_strength, beta=1.0)
        return BetaBelief(alpha=belief.beta, beta=belief.alpha)

    def describe(self) -> str:
        return f"coalition-witness({len(self.members)} members)"
