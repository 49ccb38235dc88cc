"""Unit tests for the safety analysis (requirements, verdicts, reports)."""

import pytest

from repro.core.exchange import ExchangeAction, ExchangeSequence, ExchangeState, Role
from repro.core.goods import Good, GoodsBundle
from repro.core.safety import (
    ExchangeRequirements,
    rational_price_range,
    state_verdict,
    verify_sequence,
)
from repro.exceptions import InvalidPriceError


@pytest.fixture
def bundle():
    return GoodsBundle(
        [
            Good(good_id="a", supplier_cost=2.0, consumer_value=4.0),
            Good(good_id="b", supplier_cost=3.0, consumer_value=6.0),
        ]
    )


class TestExchangeRequirements:
    def test_defaults_are_fully_safe(self):
        requirements = ExchangeRequirements()
        assert requirements.supplier_temptation_allowance == 0.0
        assert requirements.consumer_temptation_allowance == 0.0
        assert requirements.total_allowance == 0.0
        assert not requirements.strict

    def test_allowances_combine_penalty_and_exposure(self):
        requirements = ExchangeRequirements(
            supplier_defection_penalty=2.0,
            consumer_defection_penalty=1.0,
            consumer_accepted_exposure=3.0,
            supplier_accepted_exposure=4.0,
        )
        assert requirements.supplier_temptation_allowance == pytest.approx(5.0)
        assert requirements.consumer_temptation_allowance == pytest.approx(5.0)
        assert requirements.total_allowance == pytest.approx(10.0)

    def test_strict_margin_reduces_allowance(self):
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=3.0, strict=True, strict_margin=1.0
        )
        assert requirements.supplier_temptation_allowance == pytest.approx(2.0)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            ExchangeRequirements(supplier_defection_penalty=-1.0)
        with pytest.raises(ValueError):
            ExchangeRequirements(consumer_accepted_exposure=-0.1)

    def test_allows_non_strict_accepts_equality(self):
        requirements = ExchangeRequirements()
        assert requirements.allows(0.0, 0.0)
        assert not requirements.allows(0.1, 0.0)
        assert not requirements.allows(0.0, 0.1)

    def test_allows_strict_rejects_equality(self):
        requirements = ExchangeRequirements.isolated_strict()
        assert not requirements.allows(0.0, 0.0)
        assert requirements.allows(-1.0, -1.0)

    def test_constructors(self):
        isolated = ExchangeRequirements.isolated_strict(margin=0.5)
        assert isolated.strict and isolated.strict_margin == 0.5
        reputation = ExchangeRequirements.with_reputation(2.0, 3.0)
        assert reputation.supplier_defection_penalty == 2.0
        assert reputation.consumer_defection_penalty == 3.0
        safe = ExchangeRequirements.fully_safe()
        assert safe.total_allowance == 0.0


class TestStateVerdict:
    def test_safe_state(self, bundle):
        state = ExchangeState.initial(bundle, price=7.0)
        verdict = state_verdict(state, ExchangeRequirements())
        assert verdict.safe
        assert verdict.supplier_excess == 0.0
        assert verdict.consumer_excess == 0.0
        assert verdict.tempted_roles == ()

    def test_supplier_tempted_state(self, bundle):
        # Full pre-payment: the supplier is tempted by the whole remaining cost.
        state = ExchangeState.initial(bundle, price=7.0).apply(ExchangeAction.pay(7.0))
        verdict = state_verdict(state, ExchangeRequirements())
        assert not verdict.safe
        assert verdict.supplier_excess == pytest.approx(5.0)
        assert Role.SUPPLIER in verdict.tempted_roles
        assert Role.CONSUMER not in verdict.tempted_roles

    def test_consumer_tempted_state(self, bundle):
        # Full delivery without any payment: the consumer owes the full price.
        state = ExchangeState.initial(bundle, price=7.0)
        state = state.apply(ExchangeAction.deliver("a"))
        state = state.apply(ExchangeAction.deliver("b"))
        verdict = state_verdict(state, ExchangeRequirements())
        assert not verdict.safe
        assert verdict.consumer_excess == pytest.approx(7.0)
        assert verdict.tempted_roles == (Role.CONSUMER,)

    def test_allowance_absorbs_temptation(self, bundle):
        state = ExchangeState.initial(bundle, price=7.0).apply(ExchangeAction.pay(7.0))
        requirements = ExchangeRequirements(consumer_accepted_exposure=5.0)
        verdict = state_verdict(state, requirements)
        assert verdict.safe
        assert verdict.supplier_temptation == pytest.approx(5.0)


class TestVerifySequence:
    def test_goods_first_sequence_violates(self, bundle):
        sequence = ExchangeSequence(
            bundle,
            price=7.0,
            actions=[
                ExchangeAction.deliver("a"),
                ExchangeAction.deliver("b"),
                ExchangeAction.pay(7.0),
            ],
        )
        report = verify_sequence(sequence, ExchangeRequirements())
        assert not report.safe
        assert report.num_violations >= 1
        assert report.max_consumer_temptation == pytest.approx(7.0)
        assert "consumer" in report.describe()

    def test_interleaved_sequence_with_allowance_passes(self, bundle):
        sequence = ExchangeSequence(
            bundle,
            price=7.0,
            actions=[
                ExchangeAction.pay(4.0),
                ExchangeAction.deliver("a"),
                ExchangeAction.pay(3.0),
                ExchangeAction.deliver("b"),
            ],
        )
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=4.0, supplier_accepted_exposure=1.0
        )
        report = verify_sequence(sequence, requirements)
        assert report.safe
        assert report.describe().startswith("sequence satisfies")

    def test_strict_isolated_exchange_never_safe(self, bundle):
        # Whatever the schedule, the final state has both temptations equal to
        # zero, which the strict requirement rejects — the paper's
        # impossibility observation for isolated exchanges.
        sequence = ExchangeSequence(
            bundle,
            price=7.0,
            actions=[
                ExchangeAction.pay(2.0),
                ExchangeAction.deliver("a"),
                ExchangeAction.pay(5.0),
                ExchangeAction.deliver("b"),
            ],
        )
        report = verify_sequence(sequence, ExchangeRequirements.isolated_strict())
        assert not report.safe

    def test_violation_description_lists_step(self, bundle):
        sequence = ExchangeSequence(
            bundle,
            price=7.0,
            actions=[
                ExchangeAction.deliver("a"),
                ExchangeAction.deliver("b"),
                ExchangeAction.pay(7.0),
            ],
        )
        report = verify_sequence(sequence, ExchangeRequirements())
        assert any("step" in violation.describe() for violation in report.violations)


class TestPriceRanges:
    def test_rational_price_range(self, bundle):
        low, high = rational_price_range(bundle)
        assert low == pytest.approx(5.0)
        assert high == pytest.approx(10.0)

    def test_rational_price_range_rejects_value_destroying_trade(self):
        bundle = GoodsBundle(
            [Good(good_id="a", supplier_cost=10.0, consumer_value=1.0)]
        )
        with pytest.raises(InvalidPriceError):
            rational_price_range(bundle)
