"""Safety conditions for exchange schedules.

Sandholm's safe-exchange analysis requires that at every point of the
exchange the *future gains* of both partners from completing the exchange
exceed their gains from defecting immediately.  Expressed through the state
quantities of :mod:`repro.core.exchange` this is

``supplier_temptation <= 0``  and  ``consumer_temptation <= 0``

at every intermediate state (strictly below zero for the strict version the
paper refers to, which is why an isolated exchange never admits a strictly
safe sequence — at the final state both temptations are exactly zero).

Two relaxations, which the paper combines, are captured by
:class:`ExchangeRequirements`:

* **Reputation effects** — a defecting party forfeits the value of its future
  business (its *defection penalty*), so a temptation up to that penalty does
  not create a rational incentive to defect.
* **Trust-aware exposure** — the party *exposed* to a defection may accept a
  bounded temptation of its partner ("the value it accepts to be indebted"),
  based on its trust estimate and risk averseness.  This is the paper's
  contribution and is produced by :mod:`repro.core.decision`.

Both relaxations add up into per-side *temptation allowances* which the
planner (:mod:`repro.core.planner`) and the verification helpers below use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.exchange import ExchangeSequence, ExchangeState, Role
from repro.core.goods import GoodsBundle
from repro.core.numeric import EPSILON, approx_le, approx_lt
from repro.exceptions import InvalidPriceError

__all__ = [
    "ExchangeRequirements",
    "StateVerdict",
    "SafetyViolation",
    "SafetyReport",
    "state_verdict",
    "verify_sequence",
    "rational_price_range",
]


@dataclass(frozen=True)
class ExchangeRequirements:
    """Per-exchange safety requirements and relaxations.

    Attributes
    ----------
    supplier_defection_penalty:
        Value of future business the *supplier* forfeits by defecting
        (the reputation continuation value, ``rho_s``).
    consumer_defection_penalty:
        Value of future business the *consumer* forfeits by defecting
        (``rho_c``).
    consumer_accepted_exposure:
        Largest supplier temptation the *consumer* accepts to be exposed to
        (the consumer's trust-aware indebtedness bound).
    supplier_accepted_exposure:
        Largest consumer temptation the *supplier* accepts to be exposed to.
    strict:
        When ``True`` the original strict definition is used: future gains
        must exceed defection gains by more than ``strict_margin``.  With all
        other fields zero this reproduces the impossibility of safe isolated
        exchanges.
    strict_margin:
        The margin used in strict mode (``epsilon`` of the strict
        inequality).  Ignored when ``strict`` is ``False``.
    """

    supplier_defection_penalty: float = 0.0
    consumer_defection_penalty: float = 0.0
    consumer_accepted_exposure: float = 0.0
    supplier_accepted_exposure: float = 0.0
    strict: bool = False
    strict_margin: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "supplier_defection_penalty",
            "consumer_defection_penalty",
            "consumer_accepted_exposure",
            "supplier_accepted_exposure",
            "strict_margin",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    # ------------------------------------------------------------------
    # Constructors for the three regimes discussed in the paper
    # ------------------------------------------------------------------
    @classmethod
    def isolated_strict(cls, margin: float = 0.0) -> "ExchangeRequirements":
        """The original strict setting: no reputation, no accepted exposure."""
        return cls(strict=True, strict_margin=margin)

    @classmethod
    def with_reputation(
        cls,
        supplier_defection_penalty: float,
        consumer_defection_penalty: float,
        strict: bool = False,
    ) -> "ExchangeRequirements":
        """Reputation-backed exchange: defection destroys future business."""
        return cls(
            supplier_defection_penalty=supplier_defection_penalty,
            consumer_defection_penalty=consumer_defection_penalty,
            strict=strict,
        )

    @classmethod
    def fully_safe(cls) -> "ExchangeRequirements":
        """Non-strict fully safe exchange (no temptation ever positive)."""
        return cls()

    # ------------------------------------------------------------------
    # Allowances used by planner and verification
    # ------------------------------------------------------------------
    @property
    def supplier_temptation_allowance(self) -> float:
        """Largest tolerated supplier temptation.

        The supplier's own defection penalty makes temptations up to that
        penalty harmless, and on top of it the consumer accepts a bounded
        exposure.
        """
        allowance = self.supplier_defection_penalty + self.consumer_accepted_exposure
        if self.strict:
            allowance -= self.strict_margin
        return allowance

    @property
    def consumer_temptation_allowance(self) -> float:
        """Largest tolerated consumer temptation (mirror of the supplier case)."""
        allowance = self.consumer_defection_penalty + self.supplier_accepted_exposure
        if self.strict:
            allowance -= self.strict_margin
        return allowance

    @property
    def total_allowance(self) -> float:
        """Sum of both allowances — the planner's ordering budget."""
        return (
            self.supplier_temptation_allowance + self.consumer_temptation_allowance
        )

    def allows(self, supplier_temptation: float, consumer_temptation: float) -> bool:
        """Whether a state with the given temptations satisfies the requirements.

        In strict mode the temptations must lie strictly below the
        (margin-reduced) allowances, mirroring the paper's "future gains
        greater than defection gains"; otherwise equality is accepted.
        """
        if self.strict:
            return approx_lt(
                supplier_temptation, self.supplier_temptation_allowance
            ) and approx_lt(
                consumer_temptation, self.consumer_temptation_allowance
            )
        return approx_le(
            supplier_temptation, self.supplier_temptation_allowance
        ) and approx_le(consumer_temptation, self.consumer_temptation_allowance)


@dataclass(frozen=True)
class StateVerdict:
    """Safety classification of a single exchange state."""

    safe: bool
    supplier_temptation: float
    consumer_temptation: float
    supplier_excess: float
    consumer_excess: float

    @property
    def tempted_roles(self) -> Tuple[Role, ...]:
        """Roles whose temptation exceeds the allowance in this state."""
        roles: List[Role] = []
        if self.supplier_excess > EPSILON:
            roles.append(Role.SUPPLIER)
        if self.consumer_excess > EPSILON:
            roles.append(Role.CONSUMER)
        return tuple(roles)


@dataclass(frozen=True)
class SafetyViolation:
    """One state of a sequence that violates the requirements."""

    step_index: int
    verdict: StateVerdict

    def describe(self) -> str:
        roles = ", ".join(role.value for role in self.verdict.tempted_roles)
        return (
            f"step {self.step_index}: allowance exceeded for {roles} "
            f"(supplier excess {self.verdict.supplier_excess:.3f}, "
            f"consumer excess {self.verdict.consumer_excess:.3f})"
        )


@dataclass(frozen=True)
class SafetyReport:
    """Result of verifying a complete exchange sequence."""

    safe: bool
    violations: Tuple[SafetyViolation, ...]
    max_supplier_temptation: float
    max_consumer_temptation: float

    @property
    def num_violations(self) -> int:
        return len(self.violations)

    def describe(self) -> str:
        if self.safe:
            return (
                "sequence satisfies the requirements "
                f"(max supplier temptation {self.max_supplier_temptation:.3f}, "
                f"max consumer temptation {self.max_consumer_temptation:.3f})"
            )
        lines = ["sequence violates the requirements:"]
        lines.extend("  " + violation.describe() for violation in self.violations)
        return "\n".join(lines)


def state_verdict(
    state: ExchangeState, requirements: ExchangeRequirements
) -> StateVerdict:
    """Classify a single exchange state against the requirements."""
    supplier_temptation = state.supplier_temptation
    consumer_temptation = state.consumer_temptation
    supplier_excess = supplier_temptation - requirements.supplier_temptation_allowance
    consumer_excess = consumer_temptation - requirements.consumer_temptation_allowance
    safe = requirements.allows(supplier_temptation, consumer_temptation)
    return StateVerdict(
        safe=safe,
        supplier_temptation=supplier_temptation,
        consumer_temptation=consumer_temptation,
        supplier_excess=max(0.0, supplier_excess),
        consumer_excess=max(0.0, consumer_excess),
    )


def verify_sequence(
    sequence: ExchangeSequence, requirements: ExchangeRequirements
) -> SafetyReport:
    """Check every state of ``sequence`` against ``requirements``.

    The initial state (before any action) is checked as well: the paper's
    condition holds "at any point during the exchange", which includes the
    moment the partners commit to the agreed price.
    """
    violations: List[SafetyViolation] = []
    max_supplier = float("-inf")
    max_consumer = float("-inf")
    for index, state in enumerate(sequence.states()):
        verdict = state_verdict(state, requirements)
        max_supplier = max(max_supplier, verdict.supplier_temptation)
        max_consumer = max(max_consumer, verdict.consumer_temptation)
        if not verdict.safe:
            violations.append(SafetyViolation(step_index=index, verdict=verdict))
    return SafetyReport(
        safe=not violations,
        violations=tuple(violations),
        max_supplier_temptation=max_supplier,
        max_consumer_temptation=max_consumer,
    )


def rational_price_range(bundle: GoodsBundle) -> Tuple[float, float]:
    """Prices that give both partners a non-negative gain from completion.

    Raises :class:`InvalidPriceError` if the trade destroys value (the
    supplier's total cost exceeds the consumer's total value), in which case
    no individually rational price exists.
    """
    low = bundle.total_supplier_cost
    high = bundle.total_consumer_value
    if low > high + EPSILON:
        raise InvalidPriceError(
            "no individually rational price exists: total supplier cost "
            f"{low:.3f} exceeds total consumer value {high:.3f}"
        )
    return low, high
