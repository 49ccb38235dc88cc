"""Trust-aware safe exchange — the paper's primary contribution.

Section 3 of the paper extends Sandholm's safe exchange as follows: when the
valuations do not admit a fully safe schedule, the two partners

1. obtain probabilistic estimates of each other's honesty from the underlying
   trust-learning module (:mod:`repro.trust`),
2. translate those estimates together with their risk averseness into bounds
   on the value each accepts to be indebted (:mod:`repro.core.decision`), and
3. run a quadratic-time scheduling algorithm that finds an exchange sequence
   respecting the relaxed bounds, if one exists (:mod:`repro.core.planner`).

This module wires the three steps together behind a single façade,
:class:`TrustAwareExchangePlanner`, and a convenience function
:func:`plan_trust_aware_exchange`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.decision import (
    DecisionMaker,
    ExposureAssessment,
    InteractionDecision,
    RiskPolicy,
)
from repro.core.exchange import ExchangeSequence
from repro.core.goods import GoodsBundle
from repro.core.planner import PaymentPolicy, plan_exchange
from repro.core.safety import ExchangeRequirements
from repro.exceptions import InvalidPriceError

__all__ = [
    "PartnerModel",
    "TrustAwarePlan",
    "TrustAwareExchangePlanner",
    "plan_trust_aware_exchange",
]


@dataclass(frozen=True)
class PartnerModel:
    """One party's view used by the trust-aware planner.

    Attributes
    ----------
    trust_in_partner:
        Probability estimate that the partner will behave honestly, produced
        by the trust-learning module.
    decision_maker:
        The party's decision-making module (risk policy and gates).
    defection_penalty:
        The value of future business *this* party would forfeit by defecting
        (its reputation continuation value).  This relaxes the partner's
        exposure, not this party's.
    """

    trust_in_partner: float
    decision_maker: DecisionMaker
    defection_penalty: float = 0.0


@dataclass(frozen=True)
class TrustAwarePlan:
    """Result of trust-aware exchange planning for one prospective exchange."""

    bundle: GoodsBundle
    price: float
    requirements: ExchangeRequirements
    sequence: Optional[ExchangeSequence]
    supplier_assessment: ExposureAssessment
    consumer_assessment: ExposureAssessment
    supplier_decision: Optional[InteractionDecision]
    consumer_decision: Optional[InteractionDecision]

    @property
    def schedulable(self) -> bool:
        """Whether a schedule satisfying the relaxed bounds exists."""
        return self.sequence is not None

    @property
    def agreed(self) -> bool:
        """Whether both parties' decision modules accept the planned schedule."""
        return (
            self.sequence is not None
            and self.supplier_decision is not None
            and self.consumer_decision is not None
            and self.supplier_decision.accept
            and self.consumer_decision.accept
        )

    @property
    def supplier_gain_if_completed(self) -> float:
        return self.price - self.bundle.total_supplier_cost

    @property
    def consumer_gain_if_completed(self) -> float:
        return self.bundle.total_consumer_value - self.price

    def describe(self) -> str:
        """Human readable summary of the plan."""
        lines = [
            f"Trust-aware exchange plan for {len(self.bundle)} goods at price "
            f"{self.price:.3f}",
            f"  consumer accepted exposure: "
            f"{self.requirements.consumer_accepted_exposure:.3f}",
            f"  supplier accepted exposure: "
            f"{self.requirements.supplier_accepted_exposure:.3f}",
            f"  schedulable: {self.schedulable}",
            f"  agreed: {self.agreed}",
        ]
        if self.sequence is not None:
            lines.append(
                f"  max supplier temptation: "
                f"{self.sequence.max_supplier_temptation:.3f}"
            )
            lines.append(
                f"  max consumer temptation: "
                f"{self.sequence.max_consumer_temptation:.3f}"
            )
        return "\n".join(lines)


class TrustAwareExchangePlanner:
    """End-to-end planner implementing the paper's Section 3 pipeline."""

    def __init__(
        self,
        payment_policy: PaymentPolicy = PaymentPolicy.MINIMAL_EXPOSURE,
        strict: bool = False,
        strict_margin: float = 0.0,
    ):
        self._payment_policy = payment_policy
        self._strict = strict
        self._strict_margin = strict_margin

    @property
    def payment_policy(self) -> PaymentPolicy:
        return self._payment_policy

    def plan(
        self,
        bundle: GoodsBundle,
        price: float,
        supplier: PartnerModel,
        consumer: PartnerModel,
    ) -> TrustAwarePlan:
        """Run assessment, scheduling and the final accept/reject decisions."""
        if not 0.0 <= price < math.inf:
            raise InvalidPriceError(f"price must be finite and >= 0, got {price}")
        supplier_gain = max(0.0, price - bundle.total_supplier_cost)
        consumer_gain = max(0.0, bundle.total_consumer_value - price)
        supplier_assessment = supplier.decision_maker.assess(
            supplier.trust_in_partner, supplier_gain
        )
        consumer_assessment = consumer.decision_maker.assess(
            consumer.trust_in_partner, consumer_gain
        )
        requirements = ExchangeRequirements(
            supplier_defection_penalty=supplier.defection_penalty,
            consumer_defection_penalty=consumer.defection_penalty,
            consumer_accepted_exposure=consumer_assessment.accepted_exposure,
            supplier_accepted_exposure=supplier_assessment.accepted_exposure,
            strict=self._strict,
            strict_margin=self._strict_margin,
        )
        sequence = plan_exchange(bundle, price, requirements, self._payment_policy)
        supplier_decision: Optional[InteractionDecision] = None
        consumer_decision: Optional[InteractionDecision] = None
        if sequence is not None:
            # Each party is exposed to the *partner's* temptation, net of the
            # partner's own defection penalty (a tempted partner who would
            # lose more future business than the temptation is worth is not a
            # rational threat).
            supplier_exposure_realised = max(
                0.0,
                sequence.max_consumer_temptation - consumer.defection_penalty,
            )
            consumer_exposure_realised = max(
                0.0,
                sequence.max_supplier_temptation - supplier.defection_penalty,
            )
            supplier_decision = supplier.decision_maker.decide(
                supplier.trust_in_partner, supplier_gain, supplier_exposure_realised
            )
            consumer_decision = consumer.decision_maker.decide(
                consumer.trust_in_partner, consumer_gain, consumer_exposure_realised
            )
        return TrustAwarePlan(
            bundle=bundle,
            price=price,
            requirements=requirements,
            sequence=sequence,
            supplier_assessment=supplier_assessment,
            consumer_assessment=consumer_assessment,
            supplier_decision=supplier_decision,
            consumer_decision=consumer_decision,
        )


def plan_trust_aware_exchange(
    bundle: GoodsBundle,
    price: float,
    supplier_trust_in_consumer: float,
    consumer_trust_in_supplier: float,
    supplier_policy: RiskPolicy,
    consumer_policy: RiskPolicy,
    supplier_defection_penalty: float = 0.0,
    consumer_defection_penalty: float = 0.0,
    payment_policy: PaymentPolicy = PaymentPolicy.MINIMAL_EXPOSURE,
) -> TrustAwarePlan:
    """One-call convenience wrapper around :class:`TrustAwareExchangePlanner`."""
    planner = TrustAwareExchangePlanner(payment_policy=payment_policy)
    supplier = PartnerModel(
        trust_in_partner=supplier_trust_in_consumer,
        decision_maker=DecisionMaker(risk_policy=supplier_policy),
        defection_penalty=supplier_defection_penalty,
    )
    consumer = PartnerModel(
        trust_in_partner=consumer_trust_in_supplier,
        decision_maker=DecisionMaker(risk_policy=consumer_policy),
        defection_penalty=consumer_defection_penalty,
    )
    return planner.plan(bundle, price, supplier, consumer)
