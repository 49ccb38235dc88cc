"""Oracle tests of the cached temptation profile and the executor reading it.

``ExchangeState`` replays stay the reference model.  Every per-state entry of
``ExchangeSequence.profile`` must equal the replay bit for bit (``==`` on
floats), on random bundles with zero-cost and zero-value goods, random
prices and every payment policy.  The pre-profile executor, which walked
``ExchangeState`` objects and asked each behaviour's own ``will_defect`` at
every step, is kept below as ``reference_execute``, with those per-class
methods as ``legacy_will_defect``.  The batched ``execute_many`` (and
``execute_sequence``, one row of it) must return the identical results and
leave the random generator in the identical state, over batches that mix
planned rows of several blocks with actions-form rows.

The unified rule: a party defects when its temptation exceeds its
``defection_rule`` threshold and, if the rule has an honesty, a draw
exceeds it.  The per-class methods agree with it on every finite
temptation; on a NaN temptation they disagreed (the probabilistic and the
fluctuating ones drew, the others did not), but bundles and prices are
validated finite, so no schedule has a NaN temptation.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.exchange as exchange_module
import repro.core.goods as goods_module
import repro.core.planner as planner_module
from repro.core.exchange import (
    ExchangeAction,
    ExchangeSequence,
    ExchangeState,
    Role,
    TemptationProfile,
)
from repro.core.goods import Good, GoodsBundle
from repro.core.planner import PaymentPolicy, build_sequence, plan_exchange_batch
from repro.core.safety import ExchangeRequirements
from repro.exceptions import InvalidActionError
from repro.marketplace.transaction import (
    TransactionResult,
    execute_many,
    execute_sequence,
)
from repro.simulation.behaviors import (
    BehaviorModel,
    FluctuatingBehavior,
    HonestBehavior,
    OpportunisticBehavior,
    ProbabilisticBehavior,
    RationalDefectorBehavior,
)
from summation import SUMMATIONS, summation_patched


def replay_profile(sequence):
    """The profile of ``sequence`` read off an ``ExchangeState`` replay."""
    states = list(sequence.states())
    return TemptationProfile(
        supplier_temptation=tuple(s.supplier_temptation for s in states),
        consumer_temptation=tuple(s.consumer_temptation for s in states),
        supplier_utility=tuple(s.supplier_utility for s in states),
        consumer_utility=tuple(s.consumer_utility for s in states),
        paid=tuple(s.paid for s in states),
        delivered=tuple(len(s.delivered_ids) for s in states),
    )


def legacy_will_defect(behavior, temptation, rng, time=0.0):
    """The per-class ``will_defect`` methods ``defection_rule`` replaced."""
    if isinstance(behavior, HonestBehavior):
        return False
    if isinstance(behavior, RationalDefectorBehavior):
        return temptation > behavior.epsilon
    if isinstance(behavior, OpportunisticBehavior):
        return temptation > behavior.threshold
    if isinstance(behavior, ProbabilisticBehavior):
        if temptation <= behavior.epsilon:
            return False
        return rng.random() > behavior.honesty
    if isinstance(behavior, FluctuatingBehavior):
        if temptation <= behavior.epsilon:
            return False
        return rng.random() > behavior.honesty_at(time)
    assert isinstance(behavior, DefectAtOnce)
    return True


def reference_execute(sequence, supplier_behavior, consumer_behavior, rng, time=0.0):
    """The state-walking executor the batched one replaced."""
    state = ExchangeState.initial(sequence.bundle, sequence.price)
    for step_index, action in enumerate(sequence.actions):
        actor = action.actor
        behavior = (
            supplier_behavior if actor is Role.SUPPLIER else consumer_behavior
        )
        if legacy_will_defect(behavior, state.temptation_of(actor), rng, time):
            return TransactionResult(
                completed=False,
                defector=actor,
                defection_step=step_index,
                supplier_payoff=state.supplier_utility,
                consumer_payoff=state.consumer_utility,
                price=sequence.price,
                paid=state.paid,
                goods_delivered=len(state.delivered_ids),
                goods_total=len(sequence.bundle),
            )
        state = state.apply(action)
    return TransactionResult(
        completed=True,
        defector=None,
        defection_step=None,
        supplier_payoff=state.supplier_utility,
        consumer_payoff=state.consumer_utility,
        price=sequence.price,
        paid=state.paid,
        goods_delivered=len(state.delivered_ids),
        goods_total=len(sequence.bundle),
    )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
valuations = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def bundles(draw, max_items=7):
    rows = draw(
        st.lists(st.tuples(valuations, valuations), min_size=1, max_size=max_items)
    )
    return GoodsBundle(
        Good(good_id=f"g{index}", supplier_cost=cost, consumer_value=value)
        for index, (cost, value) in enumerate(rows)
    )


def prices_for(bundle):
    high = max(bundle.total_supplier_cost, bundle.total_consumer_value) * 1.5 + 1.0
    return st.one_of(
        st.just(0.0),
        st.just(bundle.total_supplier_cost),
        st.floats(min_value=0.01, max_value=high),
    )


@st.composite
def planned_sequences(draw):
    """``build_sequence`` output for any delivery order and payment policy."""
    bundle = draw(bundles())
    price = draw(prices_for(bundle))
    order = draw(st.permutations(bundle.goods))
    exposures = st.floats(min_value=0.0, max_value=25.0)
    requirements = ExchangeRequirements(
        consumer_accepted_exposure=draw(exposures),
        supplier_accepted_exposure=draw(exposures),
    )
    policy = draw(st.sampled_from(list(PaymentPolicy)))
    return build_sequence(bundle, price, requirements, order, policy)


@st.composite
def interleaved_sequences(draw):
    """Random payment chunks at random points of a random delivery order."""
    bundle = draw(bundles())
    price = draw(prices_for(bundle))
    order = draw(st.permutations(bundle.good_ids))
    weights = []
    if price >= 0.01:
        weights = draw(
            st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=6)
        )
    elif price > 0:
        # A tiny price is paid in one chunk: a fraction of it could round to 0.
        weights = [1.0]
    slots = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(order)),
            min_size=len(weights),
            max_size=len(weights),
        )
    )
    weight_total = sum(weights)
    chunks = sorted(
        (slot, price * weight / weight_total) for slot, weight in zip(slots, weights)
    )
    actions = []
    for position in range(len(order) + 1):
        actions.extend(
            ExchangeAction.pay(chunk) for slot, chunk in chunks if slot == position
        )
        if position < len(order):
            actions.append(ExchangeAction.deliver(order[position]))
    return ExchangeSequence(bundle, price, actions)


sequences = st.one_of(planned_sequences(), interleaved_sequences())

class DefectAtOnce(BehaviorModel):
    """Defects at its first decision point."""

    def defection_rule(self, time=0.0):
        return -math.inf, None

    @property
    def honesty_probability(self):
        return 0.0

    def __repr__(self):
        return "DefectAtOnce()"


BEHAVIORS = [
    HonestBehavior(),
    RationalDefectorBehavior(),
    OpportunisticBehavior(threshold=0.0),
    OpportunisticBehavior(threshold=2.0),
    ProbabilisticBehavior(honesty=0.5),
    ProbabilisticBehavior(honesty=0.9),
    FluctuatingBehavior(initial_honesty=0.9, later_honesty=0.2, switch_time=5.0),
]


# ----------------------------------------------------------------------
# Profile == replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("summation", SUMMATIONS)
@settings(max_examples=150, deadline=None)
@given(sequence=sequences)
def test_profile_equals_state_replay(summation, sequence):
    with mock.patch.object(exchange_module, "total", summation):
        fresh = ExchangeSequence(sequence.bundle, sequence.price, sequence.actions)
        expected = replay_profile(fresh)
        assert fresh.profile == expected
        assert fresh.max_supplier_temptation == max(expected.supplier_temptation)
        assert fresh.max_consumer_temptation == max(expected.consumer_temptation)


@settings(max_examples=60, deadline=None)
@given(sequence=sequences)
def test_describe_reads_the_replayed_values(sequence):
    rows = sequence.describe().splitlines()[1:]
    assert len(rows) == len(sequence)
    for row, state in zip(rows, list(sequence.states())[1:]):
        assert f"remaining payment={state.remaining_payment:8.3f}" in row
        assert f"temptation(s)={state.supplier_temptation:8.3f}" in row
        assert f"temptation(c)={state.consumer_temptation:8.3f}" in row


class TestOverPayment:
    """A sequence within the 1e-6 validation tolerance that over-pays by
    more than EPSILON while being walked."""

    @pytest.fixture
    def sequence(self):
        bundle = GoodsBundle([Good(good_id="a", supplier_cost=2.0, consumer_value=4.0)])
        return ExchangeSequence(
            bundle,
            5.0,
            [
                ExchangeAction.deliver("a"),
                ExchangeAction.pay(5.0),
                ExchangeAction.pay(5e-7),
            ],
        )

    def test_profile_raises_like_the_replay(self, sequence):
        with pytest.raises(InvalidActionError) as replayed:
            list(sequence.states())
        with pytest.raises(InvalidActionError) as profiled:
            sequence.profile
        assert str(profiled.value) == str(replayed.value)

    def test_max_temptations_raise(self, sequence):
        with pytest.raises(InvalidActionError):
            sequence.max_supplier_temptation
        with pytest.raises(InvalidActionError):
            sequence.max_consumer_temptation

    @pytest.mark.parametrize(
        "supplier_behavior", [HonestBehavior(), DefectAtOnce()], ids=repr
    )
    def test_execution_raises(self, sequence, supplier_behavior):
        # The whole profile is built before the first decision, so the
        # over-payment raises even when a party would defect at step 0.
        with pytest.raises(InvalidActionError):
            execute_sequence(
                sequence, supplier_behavior, HonestBehavior(), random.Random(0)
            )


# ----------------------------------------------------------------------
# The derived will_defect == the per-class methods it replaced
# ----------------------------------------------------------------------
RULES = BEHAVIORS + [DefectAtOnce()]


@pytest.mark.parametrize("behavior", RULES, ids=repr)
@settings(max_examples=40, deadline=None)
@given(
    temptations=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1e-9, 2.0, 5.0]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=20,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    time=st.sampled_from([0.0, 4.0, 5.0, 9.0]),
)
def test_derived_will_defect_equals_the_per_class_methods(
    behavior, temptations, seed, time
):
    rngs = (random.Random(seed), random.Random(seed))
    derived = [behavior.will_defect(t, 0.0, rngs[0], time) for t in temptations]
    legacy = [legacy_will_defect(behavior, t, rngs[1], time) for t in temptations]
    assert derived == legacy
    assert rngs[0].getstate() == rngs[1].getstate()


# ----------------------------------------------------------------------
# execute_many == the state-walking executor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("supplier_behavior", BEHAVIORS, ids=repr)
@pytest.mark.parametrize("consumer_behavior", BEHAVIORS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(
    sequence=sequences,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    time=st.sampled_from([0.0, 4.0, 9.0]),
)
def test_execution_matches_state_walk(
    supplier_behavior, consumer_behavior, sequence, seed, time
):
    # The executor consults no behaviour per step, so the draws are
    # compared through the generator's state afterwards.
    rngs = (random.Random(seed), random.Random(seed))
    results = [
        executor(sequence, supplier_behavior, consumer_behavior, rng, time=time)
        for executor, rng in zip((reference_execute, execute_sequence), rngs)
    ]
    assert results[1] == results[0]
    assert rngs[1].getstate() == rngs[0].getstate()


@st.composite
def planned_specs(draw):
    """A candidate for ``plan_exchange_batch``: bundle, price, requirements."""
    bundle = draw(bundles())
    price = draw(prices_for(bundle))
    exposures = st.floats(min_value=0.0, max_value=25.0)
    requirements = ExchangeRequirements(
        consumer_accepted_exposure=draw(exposures),
        supplier_accepted_exposure=draw(exposures),
    )
    return bundle, price, requirements


@st.composite
def execution_batches(draw):
    """Rows that are planned specs or actions-form sequences, in a drawn
    order, each with a supplier and a consumer rule and whether it is
    executed (a planned row left out is one its block holds but the call
    does not execute, as a declined trade)."""
    rows = draw(
        st.lists(
            st.one_of(planned_specs(), interleaved_sequences()),
            min_size=1,
            max_size=10,
        )
    )
    behaviors = st.sampled_from(RULES)
    executed = st.sampled_from([True, True, False])
    return [
        (row, draw(behaviors), draw(behaviors), draw(executed)) for row in rows
    ]


@pytest.mark.parametrize("summation", SUMMATIONS)
@settings(max_examples=120, deadline=None)
@given(
    batch=execution_batches(),
    policy=st.sampled_from(list(PaymentPolicy)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    time=st.sampled_from([0.0, 4.0, 9.0]),
)
def test_execute_many_matches_the_state_walk_row_by_row(
    summation, batch, policy, seed, time
):
    """Planned rows (several blocks, one per item count) and actions-form
    rows, mixed in one call, with every rule on either side and the
    fluctuating one on both sides of its switch time."""
    with summation_patched(summation, goods_module, planner_module, exchange_module):
        specs = [row for row, *_ in batch if isinstance(row, tuple)]
        planned = iter(
            plan_exchange_batch(
                [bundle for bundle, _, _ in specs],
                [price for _, price, _ in specs],
                [requirements for _, _, requirements in specs],
                policy,
            )
        )
        rows = []
        for row, supplier, consumer, executed in batch:
            sequence = next(planned) if isinstance(row, tuple) else row
            if sequence is not None and executed:
                rows.append((sequence, supplier, consumer))
        expected_rng = random.Random(seed)
        expected = [
            reference_execute(sequence, supplier, consumer, expected_rng, time)
            for sequence, supplier, consumer in rows
        ]
        rng = random.Random(seed)
        results = execute_many(
            [sequence for sequence, _, _ in rows],
            [supplier for _, supplier, _ in rows],
            [consumer for _, _, consumer in rows],
            rng,
            time,
        )
    assert results == expected
    assert rng.getstate() == expected_rng.getstate()


def test_execute_many_of_nothing():
    rng = random.Random(0)
    state = rng.getstate()
    assert execute_many([], [], [], rng) == []
    assert rng.getstate() == state
