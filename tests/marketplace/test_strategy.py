"""Unit tests for the strategy interface and the trust-aware strategy."""

import numpy as np
import pytest

from repro.core.decision import FractionalGainPolicy, ZeroExposurePolicy
from repro.core.goods import Good, GoodsBundle
from repro.core.safety import ExchangeRequirements, verify_sequence
from repro.exceptions import MarketplaceError
from repro.marketplace.strategy import (
    ExchangeStrategy,
    StrategyContext,
    TrustAwareStrategy,
)


@pytest.fixture
def hard_bundle():
    """Single big item: not schedulable without trust or reputation."""
    return GoodsBundle([Good(good_id="x", supplier_cost=6.0, consumer_value=12.0)])


@pytest.fixture
def easy_bundle():
    return GoodsBundle.from_valuations([1.0] * 5, [2.0] * 5)


class TestStrategyContext:
    def test_defaults(self):
        context = StrategyContext()
        assert context.supplier_trust_in_consumer == 0.5
        assert context.consumer_defection_penalty == 0.0

    def test_invalid_trust(self):
        with pytest.raises(MarketplaceError):
            StrategyContext(supplier_trust_in_consumer=1.5)

    def test_invalid_penalty(self):
        with pytest.raises(MarketplaceError):
            StrategyContext(supplier_defection_penalty=-1.0)


class TestTrustAwareStrategy:
    def test_trusting_context_schedules_hard_bundle(self, hard_bundle):
        strategy = TrustAwareStrategy()
        context = StrategyContext(
            supplier_trust_in_consumer=0.9, consumer_trust_in_supplier=0.95
        )
        sequence = strategy.plan(hard_bundle, 9.0, context)
        assert sequence is not None
        # The exposure actually planned must be within what an expected-loss
        # policy at that trust level accepts.
        assert sequence.max_supplier_temptation <= 6.0 + 1e-9

    def test_distrusting_context_declines(self, hard_bundle):
        strategy = TrustAwareStrategy(
            supplier_policy=FractionalGainPolicy(1.0),
            consumer_policy=FractionalGainPolicy(1.0),
        )
        context = StrategyContext(
            supplier_trust_in_consumer=0.1, consumer_trust_in_supplier=0.1
        )
        assert strategy.plan(hard_bundle, 9.0, context) is None

    def test_easy_bundle_schedulable_even_with_zero_exposure(self, easy_bundle):
        strategy = TrustAwareStrategy(
            supplier_policy=ZeroExposurePolicy(), consumer_policy=ZeroExposurePolicy()
        )
        context = StrategyContext(
            supplier_trust_in_consumer=0.0,
            consumer_trust_in_supplier=0.0,
            supplier_defection_penalty=1.0,
            consumer_defection_penalty=1.0,
        )
        sequence = strategy.plan(easy_bundle, 5.0, context)
        assert sequence is not None
        requirements = ExchangeRequirements.with_reputation(1.0, 1.0)
        assert verify_sequence(sequence, requirements).safe

    def test_min_trust_gate(self, easy_bundle):
        strategy = TrustAwareStrategy(min_trust=0.6)
        context = StrategyContext(
            supplier_trust_in_consumer=0.5, consumer_trust_in_supplier=0.9
        )
        # Supplier's trust in the consumer is below the gate: the supplier's
        # decision module rejects, so the strategy declines the trade.
        assert strategy.plan(easy_bundle, 7.0, context) is None

    def test_require_agreement_flag(self, hard_bundle):
        lenient = TrustAwareStrategy(
            supplier_policy=FractionalGainPolicy(5.0),
            consumer_policy=FractionalGainPolicy(5.0),
            min_trust=0.99,
            require_agreement=False,
        )
        context = StrategyContext(
            supplier_trust_in_consumer=0.9, consumer_trust_in_supplier=0.9
        )
        # Schedulable, and with require_agreement=False the min_trust gate in
        # the decision modules is ignored.
        assert lenient.plan(hard_bundle, 9.0, context) is not None
        strict = TrustAwareStrategy(
            supplier_policy=FractionalGainPolicy(5.0),
            consumer_policy=FractionalGainPolicy(5.0),
            min_trust=0.99,
            require_agreement=True,
        )
        assert strict.plan(hard_bundle, 9.0, context) is None

    def test_describe(self):
        text = TrustAwareStrategy().describe()
        assert "trust-aware" in text


class TestDefaultPlanMany:
    """Strategies without a batched planner screen, then plan match by match."""

    def test_baselines_plan_each_survivor_with_plan(self, hard_bundle, easy_bundle):
        from repro.baselines import GoodsFirstStrategy, SafeOnlyStrategy

        bundles = [hard_bundle, easy_bundle, hard_bundle]
        prices = [9.0, 7.5, 9.0]
        contexts = [StrategyContext()] * 3
        for strategy in (GoodsFirstStrategy(), SafeOnlyStrategy()):
            planned = strategy.plan_many(bundles, prices, contexts)
            assert planned.screened.tolist() == strategy.screen_candidates(
                bundles, prices, contexts
            ).tolist()
            expected = [strategy.plan(b, p, c) for b, p, c in zip(bundles, prices, contexts)]
            assert [s is None for s in planned] == [s is None for s in expected]
            assert [s.actions for s in planned if s is not None] == [
                s.actions for s in expected if s is not None
            ]

    def test_screened_out_candidates_are_not_planned(self, easy_bundle):
        class Screening(ExchangeStrategy):
            planned = []

            def plan(self, bundle, price, context):
                self.planned.append(price)
                return None

            def screen_candidates(self, bundles, prices, contexts):
                return np.array([price > 7.0 for price in prices])

        strategy = Screening()
        result = strategy.plan_many([easy_bundle] * 3, [6.0, 8.0, 9.0], [StrategyContext()] * 3)
        assert list(result) == [None, None, None]
        assert result.screened.tolist() == [False, True, True]
        assert strategy.planned == [8.0, 9.0]
