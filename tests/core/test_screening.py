"""Batched candidate screening must be exact — never a behaviour change.

``exchange_is_schedulable`` decomposes the greedy planner's feasibility
rule into boundary conditions plus the bundle's ``max_prefix_demand``;
``TrustAwareStrategy.screen_candidates`` builds on it with one
``assess_many`` call per side.  The invariants: the decomposed rule agrees
with ``plan_delivery_order`` on *every* instance, and a community run with
screening is bit-identical to one without.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.goods import Good, GoodsBundle
from repro.core.planner import (
    exchange_is_schedulable,
    exchange_is_schedulable_batch,
    max_prefix_demand,
    max_prefix_demand_batch,
    plan_delivery_order,
)
from repro.core.decision import DecisionMaker, ExpectedLossBudgetPolicy
from repro.core.safety import ExchangeRequirements
from repro.core.trust_aware import PartnerModel, TrustAwareExchangePlanner
from repro.marketplace.strategy import (
    ExchangeStrategy,
    StrategyContext,
    TrustAwareStrategy,
)
from repro.simulation.community import CommunityConfig, CommunitySimulation
from repro.workloads.populations import PopulationSpec, build_population

valuations = st.tuples(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=25.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def screening_instances(draw, max_items: int = 6):
    rows = draw(st.lists(valuations, min_size=1, max_size=max_items))
    bundle = GoodsBundle(
        [
            Good(good_id=f"g{i}", supplier_cost=cost, consumer_value=value)
            for i, (cost, value) in enumerate(rows)
        ]
    )
    price_fraction = draw(st.floats(min_value=0.0, max_value=1.2))
    low = bundle.total_supplier_cost
    high = max(bundle.total_consumer_value, low)
    price = low + price_fraction * (high - low)
    requirements = ExchangeRequirements(
        consumer_accepted_exposure=draw(st.floats(min_value=0.0, max_value=25.0)),
        supplier_accepted_exposure=draw(st.floats(min_value=0.0, max_value=25.0)),
        supplier_defection_penalty=draw(st.floats(min_value=0.0, max_value=10.0)),
        consumer_defection_penalty=draw(st.floats(min_value=0.0, max_value=10.0)),
    )
    return bundle, price, requirements


@settings(max_examples=200, deadline=None)
@given(screening_instances())
def test_schedulability_rule_agrees_with_planner(instance):
    bundle, price, requirements = instance
    decomposed = exchange_is_schedulable(bundle, price, requirements)
    planned = plan_delivery_order(bundle, price, requirements) is not None
    assert decomposed == planned


@settings(max_examples=100, deadline=None)
@given(screening_instances())
def test_prefix_demand_is_allowance_independent(instance):
    bundle, price, requirements = instance
    assert max_prefix_demand(bundle) >= 0.0
    # Passing the precomputed demand must not change the answer.
    assert exchange_is_schedulable(
        bundle, price, requirements, prefix_demand=max_prefix_demand(bundle)
    ) == exchange_is_schedulable(bundle, price, requirements)


@settings(max_examples=100, deadline=None)
@given(st.lists(screening_instances(), min_size=0, max_size=12))
def test_batched_rule_is_bit_identical_to_scalar(instances):
    """The batched screen agrees with the scalar rule on every candidate.

    Mixed bundle sizes exercise the shape grouping; ties in the valuation
    draws exercise the stable-sort tie-breaking of the vectorized kernel.
    """
    bundles = [bundle for bundle, _, _ in instances]
    prices = [price for _, price, _ in instances]
    requirements = [reqs for _, _, reqs in instances]
    demands = max_prefix_demand_batch(bundles)
    assert np.array_equal(
        demands, np.array([max_prefix_demand(bundle) for bundle in bundles])
    )
    mask = exchange_is_schedulable_batch(bundles, prices, requirements)
    assert mask.dtype == np.bool_
    for index, (bundle, price, reqs) in enumerate(instances):
        assert bool(mask[index]) == exchange_is_schedulable(bundle, price, reqs)
    # Precomputed demands must not change the verdicts.
    assert np.array_equal(
        mask,
        exchange_is_schedulable_batch(
            bundles, prices, requirements, prefix_demands=demands
        ),
    )


def test_batched_rule_rejects_misaligned_inputs():
    bundle = GoodsBundle([Good(good_id="a", supplier_cost=1.0, consumer_value=2.0)])
    try:
        exchange_is_schedulable_batch([bundle], [1.0, 2.0], [ExchangeRequirements()])
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("misaligned batch must raise")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_screen_never_rejects_a_plannable_candidate(trust_pairs):
    strategy = TrustAwareStrategy()
    bundle = GoodsBundle(
        [
            Good(good_id="a", supplier_cost=4.0, consumer_value=9.0),
            Good(good_id="b", supplier_cost=6.0, consumer_value=5.0),
        ]
    )
    price = 8.0
    contexts = [
        StrategyContext(
            supplier_trust_in_consumer=supplier_trust,
            consumer_trust_in_supplier=consumer_trust,
        )
        for supplier_trust, consumer_trust in trust_pairs
    ]
    mask = strategy.screen_candidates(
        [bundle] * len(contexts), [price] * len(contexts), contexts
    )
    for passed, context in zip(mask, contexts):
        planned = strategy.plan(bundle, price, context)
        if not passed:
            assert planned is None


class _ScalarTrustAware(TrustAwareStrategy):
    """The trust-aware strategy unscreened, planned match by match with the
    scalar reference planner."""

    plan_many = ExchangeStrategy.plan_many

    def screen_candidates(self, bundles, prices, contexts):
        return np.ones(len(bundles), dtype=bool)

    def plan(self, bundle, price, context):
        plan = TrustAwareExchangePlanner().plan(
            bundle,
            price,
            PartnerModel(
                context.supplier_trust_in_consumer,
                DecisionMaker(ExpectedLossBudgetPolicy()),
                context.supplier_defection_penalty,
            ),
            PartnerModel(
                context.consumer_trust_in_supplier,
                DecisionMaker(ExpectedLossBudgetPolicy()),
                context.consumer_defection_penalty,
            ),
        )
        return plan.sequence if plan.agreed else None


def test_community_run_identical_with_and_without_screening():
    """Screening and batched planning are a pure fast path: whole-run
    results must not move against unscreened scalar planning."""
    spec = PopulationSpec(
        size=12, honest_fraction=0.5, dishonest_fraction=0.3,
        probabilistic_fraction=0.2,
    )
    results = []
    for strategy in (TrustAwareStrategy(), _ScalarTrustAware()):
        peers = build_population(spec, seed=7)
        config = CommunityConfig(rounds=12, seed=7)
        result = CommunitySimulation(peers, strategy, config).run(
            collect_outcomes=True
        )
        results.append(result)
    screened, unscreened = results
    assert screened.accounts.completed == unscreened.accounts.completed
    assert screened.accounts.declined == unscreened.accounts.declined
    assert screened.accounts.defections == unscreened.accounts.defections
    assert screened.total_welfare == unscreened.total_welfare
    assert [o.scheduled for o in screened.outcomes] == [
        o.scheduled for o in unscreened.outcomes
    ]
    assert [
        o.sequence.actions for o in screened.outcomes if o.scheduled
    ] == [o.sequence.actions for o in unscreened.outcomes if o.scheduled]
