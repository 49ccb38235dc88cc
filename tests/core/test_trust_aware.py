"""Unit tests for the trust-aware exchange planner (the paper's contribution)."""

import pytest

from repro.core.decision import (
    DecisionMaker,
    ExpectedLossBudgetPolicy,
    FractionalGainPolicy,
    ZeroExposurePolicy,
)
from repro.core.goods import Good, GoodsBundle
from repro.core.planner import exists_feasible_sequence
from repro.core.safety import ExchangeRequirements, verify_sequence
from repro.core.trust_aware import (
    PartnerModel,
    TrustAwareExchangePlanner,
    plan_trust_aware_exchange,
)
from repro.exceptions import InvalidPriceError


@pytest.fixture
def hard_bundle():
    """A single expensive item: no fully safe schedule exists."""
    return GoodsBundle([Good(good_id="x", supplier_cost=6.0, consumer_value=12.0)])


@pytest.fixture
def easy_bundle():
    """Many cheap surplus items: schedulable with modest exposure."""
    return GoodsBundle.from_valuations(
        [1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]
    )


def make_partner(trust, policy=None, penalty=0.0):
    return PartnerModel(
        trust_in_partner=trust,
        decision_maker=DecisionMaker(
            risk_policy=policy if policy is not None else ExpectedLossBudgetPolicy()
        ),
        defection_penalty=penalty,
    )


class TestTrustAwarePlanner:
    def test_untrusting_parties_cannot_schedule_hard_bundle(self, hard_bundle):
        planner = TrustAwareExchangePlanner()
        plan = planner.plan(
            hard_bundle,
            price=9.0,
            supplier=make_partner(0.0, ZeroExposurePolicy()),
            consumer=make_partner(0.0, ZeroExposurePolicy()),
        )
        assert not plan.schedulable
        assert not plan.agreed
        assert plan.supplier_decision is None and plan.consumer_decision is None

    def test_trusting_consumer_enables_hard_bundle(self, hard_bundle):
        # The key claim of the paper: partners that cannot exchange safely
        # can still exchange when the exposed side trusts the other enough.
        planner = TrustAwareExchangePlanner()
        plan = planner.plan(
            hard_bundle,
            price=9.0,
            supplier=make_partner(0.9),
            consumer=make_partner(0.95),
        )
        assert plan.schedulable
        assert plan.agreed
        report = verify_sequence(plan.sequence, plan.requirements)
        assert report.safe

    def test_more_trust_means_more_exposure_accepted(self, hard_bundle):
        planner = TrustAwareExchangePlanner()
        low = planner.plan(
            hard_bundle, 9.0, make_partner(0.5), make_partner(0.5)
        ).requirements
        high = planner.plan(
            hard_bundle, 9.0, make_partner(0.5), make_partner(0.9)
        ).requirements
        assert (
            high.consumer_accepted_exposure > low.consumer_accepted_exposure
        )

    def test_reputation_penalty_reduces_needed_exposure(self, hard_bundle):
        planner = TrustAwareExchangePlanner()
        # With a large enough continuation value on the supplier side, even a
        # distrusting consumer can exchange: the supplier's own incentive
        # keeps it honest.
        plan = planner.plan(
            hard_bundle,
            price=9.0,
            supplier=make_partner(0.9, penalty=10.0),
            consumer=make_partner(0.0, ZeroExposurePolicy()),
        )
        assert plan.schedulable

    def test_gains_computed_from_bundle_and_price(self, easy_bundle):
        planner = TrustAwareExchangePlanner()
        plan = planner.plan(
            easy_bundle, price=6.0, supplier=make_partner(0.8), consumer=make_partner(0.8)
        )
        assert plan.supplier_gain_if_completed == pytest.approx(2.0)
        assert plan.consumer_gain_if_completed == pytest.approx(2.0)

    @pytest.mark.parametrize("price", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_price_rejected(self, easy_bundle, price):
        planner = TrustAwareExchangePlanner()
        with pytest.raises(InvalidPriceError, match="finite"):
            planner.plan(
                easy_bundle,
                price=price,
                supplier=make_partner(0.5),
                consumer=make_partner(0.5),
            )

    def test_negative_price_rejected(self, easy_bundle):
        planner = TrustAwareExchangePlanner()
        with pytest.raises(InvalidPriceError):
            planner.plan(
                easy_bundle,
                price=-1.0,
                supplier=make_partner(0.5),
                consumer=make_partner(0.5),
            )

    def test_decisions_respect_realised_exposure(self, hard_bundle):
        # The consumer trusts enough for the planner to find a schedule, but
        # its own decision module (tight fractional policy) rejects the
        # realised exposure.
        planner = TrustAwareExchangePlanner()
        consumer = PartnerModel(
            trust_in_partner=0.9,
            decision_maker=DecisionMaker(
                risk_policy=FractionalGainPolicy(fraction=3.0)
            ),
        )
        plan = planner.plan(
            hard_bundle, price=9.0, supplier=make_partner(0.9), consumer=consumer
        )
        if plan.schedulable:
            # Realised exposure equals the supplier cost of the single item,
            # which the fractional policy (3 * 0.9 * gain = 8.1 >= 6) accepts.
            assert plan.consumer_decision is not None
            assert plan.consumer_decision.accept

    def test_describe_mentions_key_facts(self, hard_bundle):
        plan = plan_trust_aware_exchange(
            hard_bundle,
            price=9.0,
            supplier_trust_in_consumer=0.9,
            consumer_trust_in_supplier=0.9,
            supplier_policy=ExpectedLossBudgetPolicy(),
            consumer_policy=ExpectedLossBudgetPolicy(),
        )
        text = plan.describe()
        assert "schedulable" in text
        assert "exposure" in text


class TestConvenienceFunction:
    def test_matches_planner_results(self, hard_bundle):
        plan = plan_trust_aware_exchange(
            hard_bundle,
            price=9.0,
            supplier_trust_in_consumer=0.9,
            consumer_trust_in_supplier=0.95,
            supplier_policy=ExpectedLossBudgetPolicy(),
            consumer_policy=ExpectedLossBudgetPolicy(),
        )
        assert plan.schedulable
        # The requirements must be consistent with planner feasibility.
        assert exists_feasible_sequence(hard_bundle, 9.0, plan.requirements)

    def test_zero_trust_zero_exposure_requirements(self, hard_bundle):
        plan = plan_trust_aware_exchange(
            hard_bundle,
            price=9.0,
            supplier_trust_in_consumer=0.0,
            consumer_trust_in_supplier=0.0,
            supplier_policy=FractionalGainPolicy(fraction=1.0),
            consumer_policy=FractionalGainPolicy(fraction=1.0),
        )
        assert plan.requirements.consumer_accepted_exposure == pytest.approx(0.0)
        assert plan.requirements.supplier_accepted_exposure == pytest.approx(0.0)
        assert not plan.schedulable

    def test_defection_penalties_forwarded(self, hard_bundle):
        plan = plan_trust_aware_exchange(
            hard_bundle,
            price=9.0,
            supplier_trust_in_consumer=0.5,
            consumer_trust_in_supplier=0.5,
            supplier_policy=ZeroExposurePolicy(),
            consumer_policy=ZeroExposurePolicy(),
            supplier_defection_penalty=7.0,
            consumer_defection_penalty=1.0,
        )
        assert plan.requirements.supplier_defection_penalty == pytest.approx(7.0)
        assert plan.requirements.consumer_defection_penalty == pytest.approx(1.0)
        # Supplier's own penalty covers the item cost: schedulable even with
        # zero accepted exposures.
        assert plan.schedulable


class TestEquivalenceWithManualRequirements:
    def test_plan_requirements_equal_manual_construction(self, easy_bundle):
        planner = TrustAwareExchangePlanner()
        supplier = make_partner(0.7, FractionalGainPolicy(fraction=0.5), penalty=1.0)
        consumer = make_partner(0.6, FractionalGainPolicy(fraction=0.5), penalty=2.0)
        requirements = planner.plan(easy_bundle, 6.0, supplier, consumer).requirements
        supplier_gain = 6.0 - easy_bundle.total_supplier_cost
        consumer_gain = easy_bundle.total_consumer_value - 6.0
        expected = ExchangeRequirements(
            supplier_defection_penalty=1.0,
            consumer_defection_penalty=2.0,
            consumer_accepted_exposure=0.5 * 0.6 * consumer_gain,
            supplier_accepted_exposure=0.5 * 0.7 * supplier_gain,
        )
        assert requirements.consumer_accepted_exposure == pytest.approx(
            expected.consumer_accepted_exposure
        )
        assert requirements.supplier_accepted_exposure == pytest.approx(
            expected.supplier_accepted_exposure
        )
        assert requirements.supplier_defection_penalty == pytest.approx(1.0)
        assert requirements.consumer_defection_penalty == pytest.approx(2.0)
