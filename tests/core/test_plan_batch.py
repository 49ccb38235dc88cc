"""The round-batched planner must agree bit for bit with the scalar one.

``plan_exchange_batch`` plans many candidates with array operations: the
delivery order from the canonical-order permutation, ``build_sequence``'s
payment recurrence stepped over the positions, and the temptation profiles
as ``(group, k + 1)`` totals.  ``TrustAwareStrategy.plan_many`` adds the
batched exposures and decisions on top.  The scalar ``plan_exchange`` and
``TrustAwareExchangePlanner.plan`` stay the reference; every oracle here
runs under this interpreter's ``sum`` and under the compensated ``sum`` of
Python 3.12.  The batch returns planned-form sequences, validated once per
group as arrays; the mutation cases check that this array validation
raises what the fully validated actions constructor raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exchange as exchange_module
from repro.core import goods as goods_module
from repro.core import planner as planner_module
from repro.core.decision import (
    DecisionMaker,
    ExpectedLossBudgetPolicy,
    FractionalGainPolicy,
    RiskNeutralPolicy,
)
from repro.core.exchange import ExchangeAction, ExchangeSequence
from repro.core.goods import Good, GoodsBundle
from repro.core.planner import PaymentPolicy, plan_exchange, plan_exchange_batch
from repro.core.safety import ExchangeRequirements
from repro.core.trust_aware import PartnerModel, TrustAwareExchangePlanner
from repro.exceptions import (
    InvalidActionError,
    InvalidPriceError,
    InvalidSequenceError,
)
from repro.marketplace.strategy import StrategyContext, TrustAwareStrategy

from summation import SUMMATIONS, summation_patched

PATCHED = (goods_module, planner_module, exchange_module)

# Repeated values exercise the stable tie-breaking; exact zeros the
# zero-cost and zero-value goods; the wide range the rounding of the totals.
amounts = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 2.5, 4.0]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-3, allow_nan=False, allow_infinity=False),
)
rows = st.lists(st.tuples(amounts, amounts), min_size=1, max_size=9)


@st.composite
def candidates(draw):
    """(valuations, price fraction, requirements) of one candidate."""
    valuations = draw(rows)
    fraction = draw(st.floats(min_value=0.0, max_value=1.2))
    strict = draw(st.booleans())
    requirements = ExchangeRequirements(
        supplier_defection_penalty=draw(st.sampled_from([0.0, 0.5, 10.0])),
        consumer_defection_penalty=draw(st.sampled_from([0.0, 0.5, 10.0])),
        consumer_accepted_exposure=draw(st.floats(min_value=0.0, max_value=300.0)),
        supplier_accepted_exposure=draw(st.floats(min_value=0.0, max_value=300.0)),
        strict=strict,
        strict_margin=draw(st.sampled_from([0.0, 1e-3])) if strict else 0.0,
    )
    return valuations, fraction, requirements


def _bundles(valuation_lists):
    return [
        GoodsBundle(
            Good(good_id=f"c{index}-g{item}", supplier_cost=cost, consumer_value=value)
            for item, (cost, value) in enumerate(valuations)
        )
        for index, valuations in enumerate(valuation_lists)
    ]


def _prices(bundles, fractions):
    """A price between the bundle's cost and value (or above, past 1)."""
    prices = []
    for bundle, fraction in zip(bundles, fractions):
        low = bundle.total_supplier_cost
        high = max(bundle.total_consumer_value, low)
        prices.append(low + fraction * (high - low))
    return prices


def _bits(sequence):
    """A sequence's actions and profile with every float as its exact bits.

    The profile of a ``plan_exchange`` sequence is built lazily by
    ``TemptationProfile.build``, so comparing with it checks the batch's
    array-built profile against the scalar walk.
    """
    if sequence is None:
        return None
    profile = sequence.profile
    return (
        [(action.kind, action.good_id, action.amount.hex()) for action in sequence],
        [
            [value.hex() for value in field]
            for field in (
                profile.supplier_temptation,
                profile.consumer_temptation,
                profile.supplier_utility,
                profile.consumer_utility,
                profile.paid,
            )
        ],
        profile.delivered,
    )


@pytest.mark.parametrize("summation", SUMMATIONS)
@pytest.mark.parametrize("payment_policy", list(PaymentPolicy))
@settings(max_examples=25, deadline=None)
@given(st.lists(candidates(), min_size=1, max_size=10))
def test_batch_planner_matches_plan_exchange(summation, payment_policy, batch):
    with summation_patched(summation, *PATCHED):
        bundles = _bundles([valuations for valuations, _, _ in batch])
        prices = _prices(bundles, [fraction for _, fraction, _ in batch])
        requirements = [reqs for _, _, reqs in batch]
        planned = plan_exchange_batch(bundles, prices, requirements, payment_policy)
        assert len(planned) == len(batch)
        for bundle, price, reqs, sequence in zip(
            bundles, prices, requirements, planned
        ):
            reference = plan_exchange(bundle, price, reqs, payment_policy)
            if reference is not None:
                assert sequence.actors == reference.actors
                assert len(sequence) == len(reference)
                assert sequence.delivery_order == reference.delivery_order
                assert sequence.payments == reference.payments
                # The block's per-row maxima, read before any tuple profile.
                assert sequence.max_supplier_temptation.hex() == (
                    reference.max_supplier_temptation.hex()
                )
                assert sequence.max_consumer_temptation.hex() == (
                    reference.max_consumer_temptation.hex()
                )
                ExchangeSequence(bundle, price, sequence.actions)
            assert _bits(sequence) == _bits(reference)


def test_batch_planner_handles_empty_batches_and_bundles():
    assert plan_exchange_batch([], [], []) == []
    planned = TrustAwareStrategy().plan_many([], [], [])
    assert planned == [] and planned.screened.dtype == np.bool_
    empty = GoodsBundle([])
    for price in (0.0, 3.0):
        [sequence] = plan_exchange_batch([empty], [price], [ExchangeRequirements()])
        assert _bits(sequence) == _bits(
            plan_exchange(empty, price, ExchangeRequirements())
        )


def _mutation_group():
    """One valid planned row: (bundles, prices, order, payments, paying)."""
    bundle = GoodsBundle(
        [
            Good(good_id="a", supplier_cost=1.0, consumer_value=2.0),
            Good(good_id="b", supplier_cost=2.0, consumer_value=3.0),
            Good(good_id="c", supplier_cost=1.0, consumer_value=1.0),
        ]
    )
    return (
        [bundle],
        np.array([5.0]),
        np.array([[2, 0, 1]]),
        np.array([[1.0, 2.0, 0.0, 2.0]]),
        np.array([[True, True, False, True]]),
    )


def _repeat_item(group):
    group[2][0, 2] = 0


def _zero_chunk(group):
    group[3][0, 1] = 0.0


def _sum_off(group):
    group[3][0, 3] += 1e-3


def _negative_price(group):
    group[1][0] = -1.0


@pytest.mark.parametrize(
    "mutate, error",
    [
        (_repeat_item, InvalidSequenceError),
        (_zero_chunk, InvalidActionError),
        (_sum_off, InvalidSequenceError),
        (_negative_price, InvalidSequenceError),
    ],
)
def test_array_validation_raises_what_the_actions_constructor_raises(
    mutate, error
):
    ExchangeSequence.validate_planned(*_mutation_group())
    group = _mutation_group()
    mutate(group)
    [bundle], [price], [items], [chunks], [pays] = group
    with pytest.raises(error) as scalar:
        actions = []
        for chunk, pay, item in zip(chunks, pays, items):
            if pay:
                actions.append(ExchangeAction.pay(chunk))
            actions.append(ExchangeAction.deliver(bundle.goods[item]))
        if pays[-1]:
            actions.append(ExchangeAction.pay(chunks[-1]))
        ExchangeSequence(bundle, price, actions)
    with pytest.raises(error) as batched:
        ExchangeSequence.validate_planned(*group)
    assert str(batched.value) == str(scalar.value)


policies = st.one_of(
    st.builds(
        ExpectedLossBudgetPolicy,
        budget_fraction=st.floats(min_value=0.0, max_value=2.0),
        absolute_cap=st.one_of(st.none(), st.floats(min_value=0.0, max_value=50.0)),
    ),
    st.builds(FractionalGainPolicy, fraction=st.floats(min_value=0.0, max_value=2.0)),
    st.builds(RiskNeutralPolicy),
)
trusts = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


@st.composite
def contexts(draw):
    return StrategyContext(
        supplier_trust_in_consumer=draw(trusts),
        consumer_trust_in_supplier=draw(trusts),
        supplier_defection_penalty=draw(st.sampled_from([0.0, 1.0, 5.0])),
        consumer_defection_penalty=draw(st.sampled_from([0.0, 1.0, 5.0])),
    )


@pytest.mark.parametrize("summation", SUMMATIONS)
@pytest.mark.parametrize("payment_policy", list(PaymentPolicy))
@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(rows, st.floats(min_value=0.0, max_value=1.2), contexts()),
        min_size=1,
        max_size=10,
    ),
    policies,
    policies,
    st.sampled_from([0.0, 0.3]),
    st.booleans(),
)
def test_plan_many_matches_trust_aware_planner(
    summation,
    payment_policy,
    batch,
    supplier_policy,
    consumer_policy,
    min_trust,
    require_agreement,
):
    strategy = TrustAwareStrategy(
        supplier_policy,
        consumer_policy,
        payment_policy,
        min_trust=min_trust,
        require_agreement=require_agreement,
    )
    planner = TrustAwareExchangePlanner(payment_policy=payment_policy)
    with summation_patched(summation, *PATCHED):
        bundles = _bundles([valuations for valuations, _, _ in batch])
        prices = _prices(bundles, [fraction for _, fraction, _ in batch])
        context_list = [context for _, _, context in batch]
        planned = strategy.plan_many(bundles, prices, context_list)
        screened = strategy.screen_candidates(bundles, prices, context_list)
        assert np.array_equal(planned.screened, screened)
        for bundle, price, context, passed, sequence in zip(
            bundles, prices, context_list, screened, planned
        ):
            plan = planner.plan(
                bundle,
                price,
                PartnerModel(
                    context.supplier_trust_in_consumer,
                    DecisionMaker(supplier_policy, min_trust=min_trust),
                    context.supplier_defection_penalty,
                ),
                PartnerModel(
                    context.consumer_trust_in_supplier,
                    DecisionMaker(consumer_policy, min_trust=min_trust),
                    context.consumer_defection_penalty,
                ),
            )
            assert bool(passed) == plan.schedulable
            expected = plan.sequence if plan.agreed or not require_agreement else None
            assert _bits(sequence) == _bits(expected)
            assert _bits(strategy.plan(bundle, price, context)) == _bits(sequence)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            trusts,
            st.floats(min_value=0.0, max_value=50.0),
            st.one_of(st.just(0.0), st.floats(min_value=-5.0, max_value=80.0)),
        ),
        min_size=0,
        max_size=12,
    ),
    policies,
    st.sampled_from([0.0, 0.4]),
    st.booleans(),
)
def test_decide_many_matches_decide(decisions, policy, min_trust, require_utility):
    maker = DecisionMaker(
        policy,
        min_trust=min_trust,
        require_nonnegative_expected_utility=require_utility,
    )
    trust_list = [trust for trust, _, _ in decisions]
    gains = [gain for _, gain, _ in decisions]
    planned = [exposure for _, _, exposure in decisions]
    expected = [
        maker.decide(trust, gain, exposure).accept
        for trust, gain, exposure in decisions
    ]
    decided = maker.decide_many(trust_list, gains, planned)
    assert decided.dtype == np.bool_
    assert decided.tolist() == expected


@pytest.mark.parametrize("price", [float("nan"), float("inf"), -1.0])
def test_plan_many_rejects_invalid_prices(price):
    [bundle] = _bundles([[(1.0, 2.0)]])
    with pytest.raises(InvalidPriceError):
        TrustAwareStrategy().plan_many(
            [bundle, bundle], [1.5, price], [StrategyContext()] * 2
        )
