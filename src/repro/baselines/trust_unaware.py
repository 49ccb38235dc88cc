"""Trust-unaware exposure strategies.

These baselines use the same scheduling machinery as the trust-aware
approach but do not consult the trust estimates: they accept a *fixed*
exposure for everyone (or an unbounded one).  Comparing them against the
trust-aware strategy isolates the value of conditioning the accepted
exposure on the partner's reputation, which is the paper's contribution.
"""

from __future__ import annotations

from typing import Optional

from repro.core.exchange import ExchangeSequence
from repro.core.goods import GoodsBundle
from repro.core.planner import PaymentPolicy, plan_exchange
from repro.core.safety import ExchangeRequirements
from repro.exceptions import MarketplaceError
from repro.marketplace.strategy import ExchangeStrategy, StrategyContext

__all__ = ["FixedExposureStrategy", "OptimisticStrategy"]


class FixedExposureStrategy(ExchangeStrategy):
    """Accept the same exposure for every partner, trusted or not.

    The context's defection penalties (the reputation a defector would
    forfeit) still count towards safety.
    """

    name = "fixed-exposure"

    def __init__(
        self,
        exposure: float = 10.0,
        payment_policy: PaymentPolicy = PaymentPolicy.LAZY,
    ):
        if exposure < 0:
            raise MarketplaceError(f"exposure must be >= 0, got {exposure}")
        self._exposure = exposure
        self._payment_policy = payment_policy

    def plan(
        self,
        bundle: GoodsBundle,
        price: float,
        context: StrategyContext,
    ) -> Optional[ExchangeSequence]:
        requirements = ExchangeRequirements(
            supplier_defection_penalty=context.supplier_defection_penalty,
            consumer_defection_penalty=context.consumer_defection_penalty,
            consumer_accepted_exposure=self._exposure,
            supplier_accepted_exposure=self._exposure,
        )
        return plan_exchange(bundle, price, requirements, self._payment_policy)

    def describe(self) -> str:
        return f"{self.name}({self._exposure})"


class OptimisticStrategy(ExchangeStrategy):
    """Accept any exposure: schedule every trade, trust everyone fully.

    Equivalent to planning with an unbounded allowance; the planner then
    simply produces a convenient schedule with no regard for temptations.
    """

    name = "optimistic"

    def __init__(self, payment_policy: PaymentPolicy = PaymentPolicy.LAZY):
        self._payment_policy = payment_policy

    def plan(
        self,
        bundle: GoodsBundle,
        price: float,
        context: StrategyContext,
    ) -> Optional[ExchangeSequence]:
        scale = bundle.total_supplier_cost + bundle.total_consumer_value + price + 1.0
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=scale,
            supplier_accepted_exposure=scale,
        )
        return plan_exchange(bundle, price, requirements, self._payment_policy)
