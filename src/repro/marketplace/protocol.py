"""End-to-end exchange protocol: execute planned schedules and record them.

Planning happens before this module, for a whole round of candidates at once
(:meth:`~repro.marketplace.strategy.ExchangeStrategy.plan_many`).
:func:`run_exchanges` is the unit of work the community simulation performs
once per round, over its *scheduled* matches:

1. the schedules are executed against the parties' behaviour models in one
   :func:`~repro.marketplace.transaction.execute_many` call, and
2. each outcome is condensed into an :class:`ExchangeOutcome` carrying the
   :class:`~repro.reputation.records.InteractionRecord` to feed back into the
   reputation layer.

:func:`run_exchange` is one row of it.  A declined trade never reaches
execution; :meth:`ExchangeOutcome.unscheduled` records it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.exchange import ExchangeSequence
from repro.core.goods import GoodsBundle
from repro.exceptions import MarketplaceError
from repro.marketplace.transaction import TransactionResult, execute_many
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.reputation.records import InteractionRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.behaviors import BehaviorModel

__all__ = ["ExchangeOutcome", "run_exchange", "run_exchanges"]


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
    """Execute one planned exchange and record it: one row of :func:`run_exchanges`."""
    [outcome] = run_exchanges(
        [supplier_id],
        [consumer_id],
        [sequence],
        [supplier_behavior],
        [consumer_behavior],
        rng,
        timestamp,
    )
    return outcome


def run_exchanges(
    supplier_ids: Sequence[str],
    consumer_ids: Sequence[str],
    sequences: Sequence[ExchangeSequence],
    supplier_behaviors: Sequence["BehaviorModel"],
    consumer_behaviors: Sequence["BehaviorModel"],
    rng: random.Random,
    timestamp: float = 0.0,
    telemetry: MetricsRegistry = NULL_REGISTRY,
) -> List[ExchangeOutcome]:
    """Execute planned exchanges in one batch and record each; row ``i`` is
    ``sequences[i]`` between ``supplier_ids[i]`` and ``consumer_ids[i]``.

    The rows draw from ``rng`` in order, as one :func:`run_exchange` call
    per row would.
    """
    for supplier_id, consumer_id in zip(supplier_ids, consumer_ids):
        if supplier_id == consumer_id:
            raise MarketplaceError("supplier and consumer must be distinct agents")
    results = execute_many(
        sequences,
        supplier_behaviors,
        consumer_behaviors,
        rng,
        time=timestamp,
        telemetry=telemetry,
    )
    return [
        ExchangeOutcome(
            supplier_id=supplier_id,
            consumer_id=consumer_id,
            bundle=sequence.bundle,
            price=sequence.price,
            scheduled=True,
            sequence=sequence,
            result=result,
            record=InteractionRecord(
                supplier_id=supplier_id,
                consumer_id=consumer_id,
                completed=result.completed,
                defector=result.defector.value if result.defector is not None else None,
                value=sequence.price,
                timestamp=timestamp,
            ),
            timestamp=timestamp,
        )
        for supplier_id, consumer_id, sequence, result in zip(
            supplier_ids, consumer_ids, sequences, results
        )
    ]
