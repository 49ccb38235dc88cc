"""End-to-end exchange protocol: execute a planned schedule and record it.

Planning happens before this module, for a whole round of candidates at once
(:meth:`~repro.marketplace.strategy.ExchangeStrategy.plan_many`).
:func:`run_exchange` is the unit of work the community simulation performs
once per *scheduled* match:

1. the schedule is executed against the two parties' behaviour models, and
2. the outcome is condensed into an :class:`ExchangeOutcome` carrying the
   :class:`~repro.reputation.records.InteractionRecord` to feed back into the
   reputation layer.

A declined trade never reaches execution; :meth:`ExchangeOutcome.unscheduled`
records it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.exchange import ExchangeSequence
from repro.core.goods import GoodsBundle
from repro.exceptions import MarketplaceError
from repro.marketplace.transaction import TransactionResult, execute_sequence
from repro.reputation.records import InteractionRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.behaviors import BehaviorModel

__all__ = ["ExchangeOutcome", "run_exchange"]


@dataclass(frozen=True)
class ExchangeOutcome:
    """Everything that happened for one prospective trade."""

    supplier_id: str
    consumer_id: str
    bundle: GoodsBundle
    price: float
    scheduled: bool
    sequence: Optional[ExchangeSequence]
    result: Optional[TransactionResult]
    record: Optional[InteractionRecord]
    timestamp: float = 0.0

    @classmethod
    def unscheduled(
        cls,
        supplier_id: str,
        consumer_id: str,
        bundle: GoodsBundle,
        price: float,
        timestamp: float = 0.0,
    ) -> "ExchangeOutcome":
        """The outcome of a trade the strategy declined: nothing executed."""
        return cls(
            supplier_id=supplier_id,
            consumer_id=consumer_id,
            bundle=bundle,
            price=price,
            scheduled=False,
            sequence=None,
            result=None,
            record=None,
            timestamp=timestamp,
        )

    @property
    def completed(self) -> bool:
        return self.result is not None and self.result.completed

    @property
    def declined(self) -> bool:
        return not self.scheduled

    @property
    def welfare(self) -> float:
        return self.result.total_welfare if self.result is not None else 0.0

    @property
    def potential_welfare(self) -> float:
        """The surplus that would have been realised by completing the trade."""
        return self.bundle.total_surplus


def run_exchange(
    supplier_id: str,
    consumer_id: str,
    sequence: ExchangeSequence,
    supplier_behavior: "BehaviorModel",
    consumer_behavior: "BehaviorModel",
    rng: random.Random,
    timestamp: float = 0.0,
) -> ExchangeOutcome:
    """Execute one planned exchange and record it; returns the full outcome."""
    if supplier_id == consumer_id:
        raise MarketplaceError("supplier and consumer must be distinct agents")
    result = execute_sequence(
        sequence, supplier_behavior, consumer_behavior, rng, time=timestamp
    )
    record = InteractionRecord(
        supplier_id=supplier_id,
        consumer_id=consumer_id,
        completed=result.completed,
        defector=result.defector.value if result.defector is not None else None,
        value=sequence.price,
        timestamp=timestamp,
    )
    return ExchangeOutcome(
        supplier_id=supplier_id,
        consumer_id=consumer_id,
        bundle=sequence.bundle,
        price=sequence.price,
        scheduled=True,
        sequence=sequence,
        result=result,
        record=record,
        timestamp=timestamp,
    )
