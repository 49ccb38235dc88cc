"""Unit tests for the safe-exchange planners."""

import random

import pytest

from repro.core.goods import Good, GoodsBundle
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
from repro.core.safety import ExchangeRequirements, verify_sequence
from repro.core.valuation import MarginValuationModel, make_bundle
from repro.exceptions import InvalidPriceError, NoSafeSequenceError


def simple_bundle():
    """Two surplus items; a fully safe (non-strict) schedule exists for P=Vs."""
    return GoodsBundle(
        [
            Good(good_id="a", supplier_cost=2.0, consumer_value=4.0),
            Good(good_id="b", supplier_cost=3.0, consumer_value=6.0),
        ]
    )


def single_item_bundle():
    return GoodsBundle([Good(good_id="x", supplier_cost=5.0, consumer_value=10.0)])


class TestPlanDeliveryOrder:
    def test_single_item_requires_tolerance(self):
        # Delivering a single item can never be fully safe: either the item or
        # the payment moves last, leaving one side exposed by Vs(x) at least.
        bundle = single_item_bundle()
        assert plan_delivery_order(bundle, 7.0, ExchangeRequirements()) is None
        requirements = ExchangeRequirements(consumer_accepted_exposure=5.0)
        order = plan_delivery_order(bundle, 7.0, requirements)
        assert order is not None
        assert [good.good_id for good in order] == ["x"]

    def test_strict_isolated_never_schedulable(self):
        bundle = simple_bundle()
        requirements = ExchangeRequirements.isolated_strict()
        for price in (5.0, 7.0, 10.0):
            assert plan_delivery_order(bundle, price, requirements) is None

    def test_reputation_penalty_enables_schedule(self):
        bundle = simple_bundle()
        requirements = ExchangeRequirements.with_reputation(
            supplier_defection_penalty=3.0, consumer_defection_penalty=3.0,
            strict=True,
        )
        order = plan_delivery_order(bundle, 7.0, requirements)
        assert order is not None

    def test_price_outside_start_bounds_rejected(self):
        bundle = simple_bundle()
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=10.0, supplier_accepted_exposure=0.0
        )
        # Price far above the consumer's total value: the consumer would
        # defect at the start already.
        assert plan_delivery_order(bundle, 25.0, requirements) is None

    def test_negative_price_rejected(self):
        bundle = simple_bundle()
        assert plan_delivery_order(bundle, -1.0, ExchangeRequirements()) is None

    def test_empty_bundle_trivially_schedulable(self):
        bundle = GoodsBundle([])
        order = plan_delivery_order(bundle, 0.0, ExchangeRequirements())
        assert order == []

    def test_order_covers_all_goods_once(self):
        bundle = make_bundle(MarginValuationModel(), size=20, seed=1)
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=50.0, supplier_accepted_exposure=50.0
        )
        price = (bundle.total_supplier_cost + bundle.total_consumer_value) / 2
        order = plan_delivery_order(bundle, price, requirements)
        assert order is not None
        assert sorted(good.good_id for good in order) == sorted(bundle.good_ids)

    def test_planned_order_is_feasible_by_oracle(self):
        rng = random.Random(7)
        model = MarginValuationModel(margin_low=-0.5, margin_high=0.8)
        for _ in range(50):
            bundle = model.sample_bundle(rng, rng.randint(1, 7))
            tolerance = rng.uniform(0.0, 10.0)
            requirements = ExchangeRequirements(
                consumer_accepted_exposure=tolerance / 2,
                supplier_accepted_exposure=tolerance / 2,
            )
            price = rng.uniform(
                bundle.total_supplier_cost * 0.8,
                bundle.total_consumer_value * 1.1 + 1.0,
            )
            order = plan_delivery_order(bundle, price, requirements)
            if order is not None:
                assert order_is_feasible(order, bundle, price, requirements)

    def test_completeness_against_brute_force(self):
        # The greedy planner must find a schedule exactly when one exists.
        rng = random.Random(123)
        model = MarginValuationModel(margin_low=-0.6, margin_high=0.6)
        checked_feasible = 0
        checked_infeasible = 0
        for _ in range(120):
            bundle = model.sample_bundle(rng, rng.randint(1, 6))
            tolerance = rng.uniform(0.0, 8.0)
            requirements = ExchangeRequirements(
                consumer_accepted_exposure=tolerance * rng.random(),
                supplier_accepted_exposure=tolerance * rng.random(),
            )
            price = rng.uniform(
                0.5 * bundle.total_supplier_cost,
                1.2 * bundle.total_consumer_value + 1.0,
            )
            greedy = plan_delivery_order(bundle, price, requirements)
            exhaustive = brute_force_delivery_order(bundle, price, requirements)
            assert (greedy is None) == (exhaustive is None)
            if greedy is None:
                checked_infeasible += 1
            else:
                checked_feasible += 1
        # The workload must exercise both outcomes to be meaningful.
        assert checked_feasible > 10
        assert checked_infeasible > 10

    def test_quadratic_variant_agrees_with_greedy(self):
        rng = random.Random(99)
        model = MarginValuationModel(margin_low=-0.4, margin_high=0.7)
        for _ in range(80):
            bundle = model.sample_bundle(rng, rng.randint(0, 12))
            tolerance = rng.uniform(0.0, 12.0)
            requirements = ExchangeRequirements(
                consumer_accepted_exposure=tolerance / 2,
                supplier_accepted_exposure=tolerance / 2,
            )
            price = rng.uniform(
                0.8 * bundle.total_supplier_cost,
                1.1 * bundle.total_consumer_value + 1.0,
            )
            fast = plan_delivery_order(bundle, price, requirements)
            quadratic = plan_delivery_order_quadratic(bundle, price, requirements)
            assert (fast is None) == (quadratic is None)
            if quadratic is not None:
                assert order_is_feasible(quadratic, bundle, price, requirements)


class TestBuildSequence:
    @pytest.mark.parametrize(
        "policy", [PaymentPolicy.LAZY, PaymentPolicy.EAGER, PaymentPolicy.BALANCED]
    )
    def test_all_policies_produce_safe_sequences(self, policy):
        rng = random.Random(31)
        model = MarginValuationModel(margin_low=-0.3, margin_high=0.6)
        produced = 0
        for _ in range(60):
            bundle = model.sample_bundle(rng, rng.randint(1, 8))
            tolerance = rng.uniform(0.5, 15.0)
            requirements = ExchangeRequirements(
                consumer_accepted_exposure=tolerance / 2,
                supplier_accepted_exposure=tolerance / 2,
            )
            price = rng.uniform(
                bundle.total_supplier_cost, max(bundle.total_consumer_value, 0.1)
            )
            sequence = plan_exchange(bundle, price, requirements, policy)
            if sequence is None:
                continue
            produced += 1
            report = verify_sequence(sequence, requirements)
            assert report.safe, report.describe()
        assert produced > 20

    def test_lazy_pays_later_than_eager(self):
        bundle = simple_bundle()
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=3.0, supplier_accepted_exposure=3.0
        )
        price = 7.0
        order = plan_delivery_order(bundle, price, requirements)
        assert order is not None
        lazy = build_sequence(bundle, price, requirements, order, PaymentPolicy.LAZY)
        eager = build_sequence(bundle, price, requirements, order, PaymentPolicy.EAGER)
        # After the first action, the eager schedule has paid at least as much
        # as the lazy one.
        lazy_paid_first = next(iter(lazy.states())).paid
        eager_paid_first = next(iter(eager.states())).paid
        assert eager_paid_first >= lazy_paid_first
        # Cumulative payments of EAGER dominate LAZY at every delivery count.
        def paid_after_deliveries(sequence):
            paid_track = []
            for state in sequence.states():
                paid_track.append((len(state.delivered_ids), state.paid))
            out = {}
            for delivered, paid in paid_track:
                out[delivered] = max(out.get(delivered, 0.0), paid)
            return out

        lazy_track = paid_after_deliveries(lazy)
        eager_track = paid_after_deliveries(eager)
        for delivered, paid in lazy_track.items():
            assert eager_track[delivered] >= paid - 1e-9

    def test_sequence_payments_sum_to_price(self):
        bundle = simple_bundle()
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=5.0, supplier_accepted_exposure=5.0
        )
        sequence = plan_exchange(bundle, 6.5, requirements)
        assert sequence is not None
        assert sum(sequence.payments) == pytest.approx(6.5)


class TestPlanExchange:
    def test_exists_feasible_sequence(self):
        bundle = single_item_bundle()
        assert not exists_feasible_sequence(bundle, 7.0, ExchangeRequirements())
        assert exists_feasible_sequence(
            bundle, 7.0, ExchangeRequirements(consumer_accepted_exposure=5.0)
        )

    def test_strict_plan_passes_strict_verification(self):
        bundle = simple_bundle()
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=4.0,
            supplier_accepted_exposure=4.0,
            strict=True,
            strict_margin=0.5,
        )
        sequence = plan_exchange(bundle, 7.0, requirements)
        assert sequence is not None
        assert verify_sequence(sequence, requirements).safe


class TestBruteForce:
    def test_refuses_large_bundles(self):
        bundle = make_bundle(MarginValuationModel(), size=12, seed=3)
        with pytest.raises(ValueError):
            brute_force_delivery_order(bundle, 10.0, ExchangeRequirements())

    def test_finds_order_when_one_exists(self):
        bundle = simple_bundle()
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=2.0, supplier_accepted_exposure=2.0
        )
        order = brute_force_delivery_order(bundle, 5.0, requirements)
        assert order is not None
        assert order_is_feasible(order, bundle, 5.0, requirements)


class TestRequiredTolerance:
    def test_zero_for_already_safe_exchange(self):
        # A bundle of many tiny surplus items priced at cost can be exchanged
        # fully safely (non-strict): deliver a tiny item, collect its price...
        bundle = GoodsBundle.from_valuations(
            [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]
        )
        assert required_total_tolerance(bundle, 0.0) == pytest.approx(0.0)

    def test_single_item_needs_its_cost(self):
        bundle = single_item_bundle()
        tolerance = required_total_tolerance(bundle, 7.0)
        # The binding constraint is the last delivery: Vs(x) <= T.
        assert tolerance == pytest.approx(5.0, abs=1e-3)

    def test_monotone_in_item_cost(self):
        small = GoodsBundle([Good(good_id="x", supplier_cost=2.0, consumer_value=4.0)])
        large = GoodsBundle([Good(good_id="x", supplier_cost=8.0, consumer_value=16.0)])
        assert required_total_tolerance(small, 3.0) <= required_total_tolerance(
            large, 12.0
        )

    @pytest.mark.parametrize("price", [float("inf"), float("nan"), -1.0])
    def test_invalid_price_rejected(self, price):
        with pytest.raises(InvalidPriceError, match="price must be finite"):
            required_total_tolerance(single_item_bundle(), price)

    def test_overflowing_search_bound_rejected(self):
        with pytest.raises(InvalidPriceError, match="bound overflows"):
            required_total_tolerance(single_item_bundle(), 1e308)

    def test_huge_finite_price_terminates(self):
        # At this magnitude adjacent floats are further apart than the
        # precision; the bisection stops there instead of spinning.
        bundle = GoodsBundle([Good(good_id="x", supplier_cost=4.0, consumer_value=9.0)])
        tolerance = required_total_tolerance(bundle, 1e15)
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=tolerance / 2,
            supplier_accepted_exposure=tolerance / 2,
        )
        assert exists_feasible_sequence(bundle, 1e15, requirements)
        assert tolerance == pytest.approx(2 * (1e15 - 9.0))

    def test_result_is_sufficient(self):
        rng = random.Random(5)
        model = MarginValuationModel(margin_low=-0.2, margin_high=0.6)
        for _ in range(20):
            bundle = model.sample_bundle(rng, rng.randint(1, 6))
            price = rng.uniform(
                bundle.total_supplier_cost, max(bundle.total_consumer_value, 0.1)
            )
            tolerance = required_total_tolerance(bundle, price)
            requirements = ExchangeRequirements(
                consumer_accepted_exposure=tolerance / 2 + 1e-4,
                supplier_accepted_exposure=tolerance / 2 + 1e-4,
            )
            assert exists_feasible_sequence(bundle, price, requirements)
