"""Accounting: ledgers of realised gains, losses and defections.

The strategy-comparison experiments report completion rate, realised welfare
and losses caused by defections; :class:`Ledger` accumulates these per agent
and :class:`CommunityAccounts` aggregates them per round and overall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.exchange import Role
from repro.exceptions import MarketplaceError
from repro.marketplace.transaction import TransactionResult

__all__ = ["LedgerEntry", "Ledger", "CommunityAccounts"]


@dataclass(frozen=True)
class LedgerEntry:
    """One booked transaction outcome for one agent."""

    agent_id: str
    role: Role
    payoff: float
    completed: bool
    was_defector: bool
    was_victim: bool
    timestamp: float = 0.0


class Ledger:
    """Per-agent accumulation of transaction outcomes.

    Each booked side is kept as one plain row, ``(agent_id, role, payoff,
    completed, was_defector, was_victim, timestamp)``; the
    :class:`LedgerEntry` objects are built only when :attr:`entries` or
    :meth:`entries_of` is read.
    """

    def __init__(self) -> None:
        self._rows: List[Tuple[str, Role, float, bool, bool, bool, float]] = []
        self._balances: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def entries(self) -> Tuple[LedgerEntry, ...]:
        return tuple(LedgerEntry(*row) for row in self._rows)

    def record(
        self,
        result: TransactionResult,
        supplier_id: str,
        consumer_id: str,
        timestamp: float = 0.0,
    ) -> None:
        """Book both sides of one executed transaction, supplier first."""
        if supplier_id == consumer_id:
            raise MarketplaceError("supplier and consumer must be distinct agents")
        completed = result.completed
        defector = result.defector
        victim = result.victim
        balances = self._balances
        for role, agent_id, payoff in (
            (Role.SUPPLIER, supplier_id, result.supplier_payoff),
            (Role.CONSUMER, consumer_id, result.consumer_payoff),
        ):
            self._rows.append((
                agent_id,
                role,
                payoff,
                completed,
                defector is role,
                victim is role,
                timestamp,
            ))
            balances[agent_id] = balances.get(agent_id, 0.0) + payoff

    def balance(self, agent_id: str) -> float:
        """Cumulative realised payoff of one agent."""
        return self._balances.get(agent_id, 0.0)

    def balances(self) -> Dict[str, float]:
        return dict(self._balances)

    def entries_of(self, agent_id: str) -> Tuple[LedgerEntry, ...]:
        return tuple(LedgerEntry(*row) for row in self._rows if row[0] == agent_id)

    def _victim_losses(self) -> Iterator[Tuple[str, float]]:
        """``(agent_id, loss)`` of each row in which a defection victim lost
        value, in booking order."""
        return (
            (row[0], -row[2]) for row in self._rows if row[5] and row[2] < 0
        )

    def victim_losses_by_agent(self) -> Dict[str, float]:
        """:meth:`victim_losses` of every agent with a loss, in one pass."""
        losses: Dict[str, float] = {}
        for agent_id, loss in self._victim_losses():
            losses[agent_id] = losses.get(agent_id, 0.0) + loss
        return losses

    def victim_losses(self, agent_id: Optional[str] = None) -> float:
        """Total negative payoff suffered while being a defection victim."""
        if agent_id is not None:
            return self.victim_losses_by_agent().get(agent_id, 0.0)
        losses = 0.0
        for _, loss in self._victim_losses():
            losses += loss
        return losses


@dataclass
class CommunityAccounts:
    """Aggregate outcome counters of a community run."""

    attempted: int = 0
    declined: int = 0
    executed: int = 0
    completed: int = 0
    defections: int = 0
    supplier_defections: int = 0
    consumer_defections: int = 0
    total_welfare: float = 0.0
    victim_losses: float = 0.0
    total_traded_value: float = 0.0

    def record_declined(self) -> None:
        """A prospective trade for which no acceptable schedule existed."""
        self.attempted += 1
        self.declined += 1

    def record_executed(self, result: TransactionResult) -> None:
        """A trade that was scheduled and executed (possibly with defection)."""
        self.attempted += 1
        self.executed += 1
        self.total_welfare += result.total_welfare
        self.total_traded_value += result.paid
        if result.completed:
            self.completed += 1
        else:
            self.defections += 1
            if result.defector is Role.SUPPLIER:
                self.supplier_defections += 1
            else:
                self.consumer_defections += 1
            victim = result.victim
            if victim is not None:
                victim_payoff = result.payoff_of(victim)
                if victim_payoff < 0:
                    self.victim_losses += -victim_payoff

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------
    @property
    def completion_rate(self) -> float:
        """Completed trades over attempted trades."""
        if self.attempted == 0:
            return 0.0
        return self.completed / self.attempted

    @property
    def execution_rate(self) -> float:
        """Scheduled-and-executed trades over attempted trades."""
        if self.attempted == 0:
            return 0.0
        return self.executed / self.attempted

    @property
    def defection_rate(self) -> float:
        """Defections over executed trades."""
        if self.executed == 0:
            return 0.0
        return self.defections / self.executed

    @property
    def mean_welfare_per_attempt(self) -> float:
        if self.attempted == 0:
            return 0.0
        return self.total_welfare / self.attempted

    def merge(self, other: "CommunityAccounts") -> "CommunityAccounts":
        """Return the element-wise sum of two account aggregates."""
        return CommunityAccounts(
            attempted=self.attempted + other.attempted,
            declined=self.declined + other.declined,
            executed=self.executed + other.executed,
            completed=self.completed + other.completed,
            defections=self.defections + other.defections,
            supplier_defections=self.supplier_defections + other.supplier_defections,
            consumer_defections=self.consumer_defections + other.consumer_defections,
            total_welfare=self.total_welfare + other.total_welfare,
            victim_losses=self.victim_losses + other.victim_losses,
            total_traded_value=self.total_traded_value + other.total_traded_value,
        )
