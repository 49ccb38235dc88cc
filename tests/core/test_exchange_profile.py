"""Oracle tests of the cached temptation profile and the executor reading it.

``ExchangeState`` replays stay the reference model.  Every per-state entry of
``ExchangeSequence.profile`` must equal the replay bit for bit (``==`` on
floats), on random bundles with zero-cost and zero-value goods, random
prices and every payment policy.  The pre-profile executor, which walked
``ExchangeState`` objects, is kept below as ``reference_execute``; the
profile-based ``execute_sequence`` must return the identical result after
making the identical behaviour calls.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.exchange as exchange_module
from repro.core.exchange import (
    ExchangeAction,
    ExchangeSequence,
    ExchangeState,
    Role,
    TemptationProfile,
)
from repro.core.goods import Good, GoodsBundle
from repro.core.planner import PaymentPolicy, build_sequence
from repro.core.safety import ExchangeRequirements
from repro.exceptions import InvalidActionError
from repro.marketplace.transaction import TransactionResult, execute_sequence
from repro.simulation.behaviors import (
    BehaviorModel,
    FluctuatingBehavior,
    HonestBehavior,
    OpportunisticBehavior,
    ProbabilisticBehavior,
    RationalDefectorBehavior,
)
from summation import SUMMATIONS


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


def reference_execute(sequence, supplier_behavior, consumer_behavior, rng, time=0.0):
    """The state-walking executor the profile-based one replaced."""
    state = ExchangeState.initial(sequence.bundle, sequence.price)
    for step_index, action in enumerate(sequence.actions):
        actor = action.actor
        behavior = (
            supplier_behavior if actor is Role.SUPPLIER else consumer_behavior
        )
        temptation = state.temptation_of(actor)
        continuation_gain = max(0.0, -temptation)
        if behavior.will_defect(temptation, continuation_gain, rng, time):
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


class RecordingBehavior:
    """Delegates to a behaviour model and logs every ``will_defect`` call."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def will_defect(self, temptation, value_at_stake, rng, time=0.0):
        decision = self._inner.will_defect(temptation, value_at_stake, rng, time)
        self._log.append((temptation, value_at_stake, time, decision))
        return decision


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

    def will_defect(self, temptation, value_at_stake, rng, time=0.0):
        return True

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
# execute_sequence == the state-walking executor
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
    logs = ([], [])
    rngs = (random.Random(seed), random.Random(seed))
    results = [
        executor(
            sequence,
            RecordingBehavior(supplier_behavior, log),
            RecordingBehavior(consumer_behavior, log),
            rng,
            time=time,
        )
        for executor, log, rng in zip(
            (reference_execute, execute_sequence), logs, rngs
        )
    ]
    assert results[1] == results[0]
    assert logs[1] == logs[0]
    assert rngs[1].getstate() == rngs[0].getstate()
