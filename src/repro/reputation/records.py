"""Reputation records: what gets collected about past behaviour.

The reputation management module of the reference model (Figure 1) "collects
information about the past behavior of the members of the community ... as
well as makes this information available for others to use".  The record
collected here is the :class:`InteractionRecord`: the full outcome of one
exchange between a supplier and a consumer (who, what value, whether it
completed, who defected).  Interaction records feed the peers' trust
backends and the accounting of the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.exchange import Role
from repro.exceptions import ReputationError

__all__ = ["InteractionRecord"]


@dataclass(frozen=True)
class InteractionRecord:
    """Outcome of one supplier/consumer exchange."""

    supplier_id: str
    consumer_id: str
    completed: bool
    defector: Optional[str] = None  # "supplier", "consumer" or None
    value: float = 0.0
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not self.supplier_id or not self.consumer_id:
            raise ReputationError("supplier_id and consumer_id must be non-empty")
        if self.defector not in (None, Role.SUPPLIER.value, Role.CONSUMER.value):
            raise ReputationError(
                f"defector must be 'supplier', 'consumer' or None, got {self.defector!r}"
            )
        if self.completed and self.defector is not None:
            raise ReputationError("a completed exchange cannot have a defector")
        if self.value < 0:
            raise ReputationError(f"value must be >= 0, got {self.value}")

    @property
    def supplier_honest(self) -> bool:
        """Whether the supplier behaved honestly in this interaction."""
        return self.defector != Role.SUPPLIER.value

    @property
    def consumer_honest(self) -> bool:
        """Whether the consumer behaved honestly in this interaction."""
        return self.defector != Role.CONSUMER.value

    def honest(self, role: Role) -> bool:
        if role is Role.SUPPLIER:
            return self.supplier_honest
        return self.consumer_honest

    def participant(self, role: Role) -> str:
        return self.supplier_id if role is Role.SUPPLIER else self.consumer_id
