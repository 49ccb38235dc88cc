"""Executing a planned exchange against (possibly dishonest) behaviour.

The planner guarantees that *rational* parties have no incentive to defect
within the agreed allowances — but the community contains parties that
defect anyway (malicious or opportunistic behaviour models).  Execution
walks the schedule step by step; before performing its own next step a
party consults its behaviour model with its current temptation and either
continues or walks away with what it holds.  The walk reads only who acts
at each step and the schedule's temptation profile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.exchange import ExchangeSequence, Role

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.behaviors import BehaviorModel

__all__ = ["TransactionResult", "execute_sequence"]


@dataclass(frozen=True)
class TransactionResult:
    """Outcome of executing one exchange schedule."""

    completed: bool
    defector: Optional[Role]
    defection_step: Optional[int]
    supplier_payoff: float
    consumer_payoff: float
    price: float
    paid: float
    goods_delivered: int
    goods_total: int

    @property
    def total_welfare(self) -> float:
        """Sum of both parties' realised payoffs."""
        return self.supplier_payoff + self.consumer_payoff

    @property
    def victim(self) -> Optional[Role]:
        """The counterparty of the defector (``None`` for completed trades)."""
        if self.defector is None:
            return None
        return self.defector.other

    def payoff_of(self, role: Role) -> float:
        if role is Role.SUPPLIER:
            return self.supplier_payoff
        return self.consumer_payoff


def execute_sequence(
    sequence: ExchangeSequence,
    supplier_behavior: "BehaviorModel",
    consumer_behavior: "BehaviorModel",
    rng: random.Random,
    time: float = 0.0,
) -> TransactionResult:
    """Run the schedule with the given behaviours; stop at the first defection.

    The defecting party keeps its current holdings; payoffs of both sides are
    the realised utilities at that point (which is exactly the exposure the
    safety analysis bounds).  The walk reads only the sequence's
    :attr:`~repro.core.exchange.ExchangeSequence.actors` (who acts at each
    step) and, at the state before the step, its
    :attr:`~repro.core.exchange.ExchangeSequence.profile`, so a planned
    sequence is executed without building its actions.
    """
    profile = sequence.profile
    actors = sequence.actors
    for step_index, supplier_acts in enumerate(actors):
        if supplier_acts:
            behavior = supplier_behavior
            temptation = profile.supplier_temptation[step_index]
        else:
            behavior = consumer_behavior
            temptation = profile.consumer_temptation[step_index]
        continuation_gain = max(0.0, -temptation)
        if behavior.will_defect(temptation, continuation_gain, rng, time):
            actor = Role.SUPPLIER if supplier_acts else Role.CONSUMER
            return _result(sequence, step_index, actor)
    return _result(sequence, len(actors), None)


def _result(
    sequence: ExchangeSequence, step: int, defector: Optional[Role]
) -> TransactionResult:
    """The outcome of stopping in the state before action ``step``."""
    profile = sequence.profile
    return TransactionResult(
        completed=defector is None,
        defector=defector,
        defection_step=None if defector is None else step,
        supplier_payoff=profile.supplier_utility[step],
        consumer_payoff=profile.consumer_utility[step],
        price=sequence.price,
        paid=profile.paid[step],
        goods_delivered=profile.delivered[step],
        goods_total=len(sequence.bundle),
    )
