"""Core exchange model: goods, safety analysis and trust-aware planning.

This package implements the paper's primary contribution (trust-aware safe
exchange scheduling) together with the exchange-theoretic substrate it builds
on (Sandholm's safe exchange conditions and planner).
"""

from repro.core.decision import (
    CaraPolicy,
    DecisionMaker,
    ExpectedLossBudgetPolicy,
    ExposureAssessment,
    FractionalGainPolicy,
    InteractionDecision,
    RiskNeutralPolicy,
    RiskPolicy,
    TrustThresholdPolicy,
    ZeroExposurePolicy,
)
from repro.core.exchange import (
    ActionKind,
    ExchangeAction,
    ExchangeSequence,
    ExchangeState,
    Role,
)
from repro.core.gametheory import (
    EquilibriumResult,
    ExposureGame,
    continuation_value,
    cooperation_discount_threshold,
)
from repro.core.goods import Good, GoodsBundle
from repro.core.negotiation import (
    AlternatingOffersNegotiation,
    NegotiationOutcome,
    split_surplus_price,
)
from repro.core.planner import (
    PaymentPolicy,
    brute_force_delivery_order,
    build_sequence,
    exists_feasible_sequence,
    order_is_feasible,
    plan_delivery_order,
    plan_delivery_order_quadratic,
    plan_exchange,
    required_total_tolerance,
)
from repro.core.safety import (
    ExchangeRequirements,
    SafetyReport,
    SafetyViolation,
    StateVerdict,
    rational_price_range,
    state_verdict,
    verify_sequence,
)
from repro.core.trust_aware import (
    PartnerModel,
    TrustAwareExchangePlanner,
    TrustAwarePlan,
    plan_trust_aware_exchange,
)
from repro.core.valuation import (
    BimodalValuationModel,
    CorrelatedValuationModel,
    MarginValuationModel,
    UniformValuationModel,
    ValuationModel,
    make_bundle,
)

__all__ = [
    # goods & valuations
    "Good",
    "GoodsBundle",
    "ValuationModel",
    "UniformValuationModel",
    "MarginValuationModel",
    "CorrelatedValuationModel",
    "BimodalValuationModel",
    "make_bundle",
    # exchange state machine
    "Role",
    "ActionKind",
    "ExchangeAction",
    "ExchangeState",
    "ExchangeSequence",
    # safety
    "ExchangeRequirements",
    "StateVerdict",
    "SafetyViolation",
    "SafetyReport",
    "state_verdict",
    "verify_sequence",
    "rational_price_range",
    # planning
    "PaymentPolicy",
    "plan_delivery_order",
    "plan_delivery_order_quadratic",
    "order_is_feasible",
    "build_sequence",
    "plan_exchange",
    "exists_feasible_sequence",
    "brute_force_delivery_order",
    "required_total_tolerance",
    # decision making
    "RiskPolicy",
    "ZeroExposurePolicy",
    "FractionalGainPolicy",
    "ExpectedLossBudgetPolicy",
    "RiskNeutralPolicy",
    "CaraPolicy",
    "TrustThresholdPolicy",
    "ExposureAssessment",
    "InteractionDecision",
    "DecisionMaker",
    # trust-aware planning
    "PartnerModel",
    "TrustAwarePlan",
    "TrustAwareExchangePlanner",
    "plan_trust_aware_exchange",
    # game-theoretic extension
    "continuation_value",
    "cooperation_discount_threshold",
    "ExposureGame",
    "EquilibriumResult",
    # negotiation
    "NegotiationOutcome",
    "split_surplus_price",
    "AlternatingOffersNegotiation",
]
