"""Exchange strategies: how a prospective trade is turned into a schedule.

A strategy receives the bundle, the agreed price and a
:class:`StrategyContext` (the two parties' trust estimates of each other and
their reputation continuation values) and either produces an
:class:`~repro.core.exchange.ExchangeSequence` or declines the trade.  The
paper's approach is :class:`TrustAwareStrategy`; the non-trust-aware
comparison strategies live in :mod:`repro.baselines`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.decision import DecisionMaker, ExpectedLossBudgetPolicy, RiskPolicy
from repro.core.exchange import ExchangeSequence
from repro.core.goods import GoodsBundle
from repro.core.planner import (
    PaymentPolicy,
    exchange_is_schedulable_batch,
    plan_exchange_batch,
)
from repro.core.safety import ExchangeRequirements
from repro.exceptions import InvalidPriceError, MarketplaceError

__all__ = ["StrategyContext", "PlanBatch", "ExchangeStrategy", "TrustAwareStrategy"]


@dataclass(frozen=True)
class StrategyContext:
    """Everything a strategy may condition on besides the bundle and price."""

    supplier_trust_in_consumer: float = 0.5
    consumer_trust_in_supplier: float = 0.5
    supplier_defection_penalty: float = 0.0
    consumer_defection_penalty: float = 0.0
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        for name in ("supplier_trust_in_consumer", "consumer_trust_in_supplier"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise MarketplaceError(f"{name} must lie in [0, 1], got {value}")
        for name in ("supplier_defection_penalty", "consumer_defection_penalty"):
            if getattr(self, name) < 0:
                raise MarketplaceError(f"{name} must be >= 0")


class PlanBatch(List[Optional[ExchangeSequence]]):
    """The schedules :meth:`ExchangeStrategy.plan_many` returns, one per candidate.

    A list like any other (``None`` declines a trade) that also keeps the
    batch's screen: ``screened[i]`` is ``False`` where the candidate failed
    :meth:`ExchangeStrategy.screen_candidates` and was never planned, so a
    caller can tell a screen rejection from a decline after planning.
    """

    def __init__(
        self, sequences: Sequence[Optional[ExchangeSequence]], screened: np.ndarray
    ):
        super().__init__(sequences)
        self.screened = screened


class ExchangeStrategy(abc.ABC):
    """Produces an exchange schedule for a prospective trade (or declines)."""

    #: Short identifier used in experiment tables.
    name: str = "strategy"

    @abc.abstractmethod
    def plan(
        self,
        bundle: GoodsBundle,
        price: float,
        context: StrategyContext,
    ) -> Optional[ExchangeSequence]:
        """Return a schedule, or ``None`` to decline the trade."""

    def plan_many(
        self,
        bundles: Sequence[GoodsBundle],
        prices: Sequence[float],
        contexts: Sequence[StrategyContext],
    ) -> PlanBatch:
        """:meth:`plan` for a batch of candidates: one schedule (or ``None``) each.

        The default screens the batch with :meth:`screen_candidates` and
        plans each survivor with :meth:`plan`, in candidate order.
        """
        keep = self.screen_candidates(bundles, prices, contexts)
        return PlanBatch(
            [
                self.plan(bundle, price, context) if passed else None
                for bundle, price, context, passed in zip(
                    bundles, prices, contexts, keep
                )
            ],
            keep,
        )

    def screen_candidates(
        self,
        bundles: Sequence[GoodsBundle],
        prices: Sequence[float],
        contexts: Sequence[StrategyContext],
    ) -> np.ndarray:
        """Batched pre-filter over candidate exchanges.

        Returns a boolean mask aligned with the candidates; ``False`` is a
        *guarantee* that :meth:`plan` would decline — a screened-out
        candidate skips planning entirely with identical outcomes.  The
        default screens nothing (all ``True``); strategies with a cheap
        exact feasibility test override it.
        """
        return np.ones(len(bundles), dtype=bool)

    def describe(self) -> str:
        return self.name


class _Assessment(NamedTuple):
    """Both sides' view of a candidate batch, before any schedule exists."""

    supplier_trusts: np.ndarray
    consumer_trusts: np.ndarray
    supplier_gains: np.ndarray
    consumer_gains: np.ndarray
    requirements: List[ExchangeRequirements]


class TrustAwareStrategy(ExchangeStrategy):
    """The paper's trust-aware safe exchange (Section 3).

    Both parties map their trust estimate of the partner and their risk
    policy to an accepted exposure; the planner then searches for a schedule
    within the combined allowances and both decision modules must accept the
    realised exposure of the schedule.  :meth:`plan_many` runs those three
    steps for a whole batch of candidates with array operations;
    :meth:`plan` is a batch of one.  :class:`TrustAwareExchangePlanner` is
    the scalar reference they agree with bit for bit.
    """

    name = "trust-aware"

    def __init__(
        self,
        supplier_policy: Optional[RiskPolicy] = None,
        consumer_policy: Optional[RiskPolicy] = None,
        payment_policy: PaymentPolicy = PaymentPolicy.MINIMAL_EXPOSURE,
        min_trust: float = 0.0,
        require_agreement: bool = True,
    ):
        self._supplier_policy = (
            supplier_policy if supplier_policy is not None else ExpectedLossBudgetPolicy()
        )
        self._consumer_policy = (
            consumer_policy if consumer_policy is not None else ExpectedLossBudgetPolicy()
        )
        self._supplier_maker = DecisionMaker(
            risk_policy=self._supplier_policy, min_trust=min_trust
        )
        self._consumer_maker = DecisionMaker(
            risk_policy=self._consumer_policy, min_trust=min_trust
        )
        self._payment_policy = payment_policy
        self._require_agreement = require_agreement

    def plan(
        self,
        bundle: GoodsBundle,
        price: float,
        context: StrategyContext,
    ) -> Optional[ExchangeSequence]:
        return self.plan_many([bundle], [price], [context])[0]

    def _assess(
        self,
        bundles: Sequence[GoodsBundle],
        prices: Sequence[float],
        contexts: Sequence[StrategyContext],
    ) -> _Assessment:
        """Gains, accepted exposures and requirements of a candidate batch.

        The front half of planning, shared by :meth:`screen_candidates` and
        :meth:`plan_many`: each side's gain from completing the trade, its
        accepted exposure from one :meth:`DecisionMaker.assess_many` call,
        and the :class:`ExchangeRequirements` they add up to.
        """
        supplier_gains = np.array(
            [
                max(0.0, price - bundle.total_supplier_cost)
                for bundle, price in zip(bundles, prices)
            ]
        )
        consumer_gains = np.array(
            [
                max(0.0, bundle.total_consumer_value - price)
                for bundle, price in zip(bundles, prices)
            ]
        )
        supplier_trusts = np.array(
            [context.supplier_trust_in_consumer for context in contexts]
        )
        consumer_trusts = np.array(
            [context.consumer_trust_in_supplier for context in contexts]
        )
        supplier_exposures = self._supplier_maker.assess_many(
            supplier_trusts, supplier_gains
        )
        consumer_exposures = self._consumer_maker.assess_many(
            consumer_trusts, consumer_gains
        )
        requirements = [
            ExchangeRequirements(
                supplier_defection_penalty=context.supplier_defection_penalty,
                consumer_defection_penalty=context.consumer_defection_penalty,
                consumer_accepted_exposure=consumer_exposure,
                supplier_accepted_exposure=supplier_exposure,
            )
            for context, supplier_exposure, consumer_exposure in zip(
                contexts, supplier_exposures.tolist(), consumer_exposures.tolist()
            )
        ]
        return _Assessment(
            supplier_trusts,
            consumer_trusts,
            supplier_gains,
            consumer_gains,
            requirements,
        )

    def screen_candidates(
        self,
        bundles: Sequence[GoodsBundle],
        prices: Sequence[float],
        contexts: Sequence[StrategyContext],
    ) -> np.ndarray:
        """Vectorized schedulability screen over a batch of candidates.

        The whole batch is tested against the planner's exact feasibility
        rule in one :func:`~repro.core.planner.exchange_is_schedulable_batch`
        call (bundles sharing an item count are priced together).
        Candidates failing the screen are exactly those for which
        :meth:`plan` would find no schedule.  Candidates that pass may
        still be declined by the decision gates after planning.
        """
        assessment = self._assess(bundles, prices, contexts)
        return exchange_is_schedulable_batch(
            bundles, prices, assessment.requirements
        )

    def plan_many(
        self,
        bundles: Sequence[GoodsBundle],
        prices: Sequence[float],
        contexts: Sequence[StrategyContext],
    ) -> PlanBatch:
        """Assess, schedule and decide a whole batch of candidates.

        One :meth:`_assess` pass, one
        :func:`~repro.core.planner.plan_exchange_batch` call (``None``
        exactly where :meth:`screen_candidates` fails) and one
        :meth:`DecisionMaker.decide_many` call per side over the scheduled
        candidates.  Each side is exposed to its partner's largest
        temptation net of the partner's defection penalty (a tempted partner
        who would lose more future business than the temptation is worth is
        not a rational threat).
        """
        for price in prices:
            if not 0.0 <= price < math.inf:
                raise InvalidPriceError(f"price must be finite and >= 0, got {price}")
        assessment = self._assess(bundles, prices, contexts)
        sequences = plan_exchange_batch(
            bundles, prices, assessment.requirements, self._payment_policy
        )
        scheduled = np.array(
            [sequence is not None for sequence in sequences], dtype=bool
        )
        rows = np.flatnonzero(scheduled)
        if self._require_agreement and len(rows):
            planned = [sequences[row] for row in rows.tolist()]
            supplier_penalties = np.array(
                [contexts[row].supplier_defection_penalty for row in rows.tolist()]
            )
            consumer_penalties = np.array(
                [contexts[row].consumer_defection_penalty for row in rows.tolist()]
            )
            consumer_temptations = np.array(
                [sequence.max_consumer_temptation for sequence in planned]
            )
            supplier_temptations = np.array(
                [sequence.max_supplier_temptation for sequence in planned]
            )
            supplier_exposed = consumer_temptations - consumer_penalties
            consumer_exposed = supplier_temptations - supplier_penalties
            agreed = self._supplier_maker.decide_many(
                assessment.supplier_trusts[rows],
                assessment.supplier_gains[rows],
                np.where(supplier_exposed > 0.0, supplier_exposed, 0.0),
            ) & self._consumer_maker.decide_many(
                assessment.consumer_trusts[rows],
                assessment.consumer_gains[rows],
                np.where(consumer_exposed > 0.0, consumer_exposed, 0.0),
            )
            for row in rows[~agreed].tolist():
                sequences[row] = None
        return PlanBatch(sequences, scheduled)

    def describe(self) -> str:
        return (
            f"{self.name}(supplier={self._supplier_policy.describe()}, "
            f"consumer={self._consumer_policy.describe()})"
        )
