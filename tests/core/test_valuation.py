"""Unit tests for the valuation models (bundle generators)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goods import Good, GoodsBundle
from repro.core.valuation import (
    BimodalValuationModel,
    CorrelatedValuationModel,
    MarginValuationModel,
    UniformValuationModel,
    make_bundle,
)
from repro.exceptions import InvalidGoodError, WorkloadError
from repro.workloads.valuations import MixtureValuationModel, valuation_workload


class TestUniformValuationModel:
    def test_values_within_bounds(self):
        model = UniformValuationModel(
            cost_low=1.0, cost_high=5.0, value_low=2.0, value_high=8.0
        )
        bundle = make_bundle(model, 50, seed=1)
        for good in bundle:
            assert 1.0 <= good.supplier_cost <= 5.0
            assert 2.0 <= good.consumer_value <= 8.0

    def test_invalid_bounds(self):
        with pytest.raises(WorkloadError):
            UniformValuationModel(cost_low=-1.0)
        with pytest.raises(WorkloadError):
            UniformValuationModel(cost_low=5.0, cost_high=1.0)


class TestMarginValuationModel:
    def test_margin_respected(self):
        model = MarginValuationModel(margin_low=0.1, margin_high=0.3)
        bundle = make_bundle(model, 50, seed=2)
        for good in bundle:
            ratio = good.consumer_value / good.supplier_cost
            assert 1.1 - 1e-9 <= ratio <= 1.3 + 1e-9

    def test_negative_margins_create_deficit_items(self):
        model = MarginValuationModel(margin_low=-0.5, margin_high=-0.1)
        bundle = make_bundle(model, 20, seed=3)
        assert all(not good.is_surplus_item for good in bundle)

    def test_margin_below_minus_one_rejected(self):
        with pytest.raises(WorkloadError):
            MarginValuationModel(margin_low=-1.5)


class TestCorrelatedValuationModel:
    def test_full_correlation_tracks_cost(self):
        model = CorrelatedValuationModel(correlation=1.0, value_scale=1.0)
        bundle = make_bundle(model, 30, seed=4)
        for good in bundle:
            assert good.consumer_value == pytest.approx(good.supplier_cost)

    def test_invalid_correlation(self):
        with pytest.raises(WorkloadError):
            CorrelatedValuationModel(correlation=1.5)


class TestBimodalValuationModel:
    def test_contains_small_and_big_items(self):
        model = BimodalValuationModel(
            small_cost=(1.0, 2.0), big_cost=(50.0, 60.0), big_fraction=0.5
        )
        bundle = make_bundle(model, 200, seed=5)
        costs = [good.supplier_cost for good in bundle]
        assert any(cost <= 2.0 for cost in costs)
        assert any(cost >= 50.0 for cost in costs)

    def test_invalid_fraction(self):
        with pytest.raises(WorkloadError):
            BimodalValuationModel(big_fraction=1.5)


class TestMakeBundle:
    def test_reproducible_from_seed(self):
        model = UniformValuationModel()
        a = make_bundle(model, 10, seed=42)
        b = make_bundle(model, 10, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        model = UniformValuationModel()
        a = make_bundle(model, 10, seed=1)
        b = make_bundle(model, 10, seed=2)
        assert a != b

    def test_explicit_rng(self):
        model = UniformValuationModel()
        rng = random.Random(7)
        bundle = make_bundle(model, 5, rng=rng)
        assert len(bundle) == 5

    def test_seed_and_rng_mutually_exclusive(self):
        with pytest.raises(WorkloadError):
            make_bundle(UniformValuationModel(), 5, seed=1, rng=random.Random(1))

    def test_negative_size_rejected(self):
        with pytest.raises(WorkloadError):
            make_bundle(UniformValuationModel(), -1, seed=1)

    def test_prefix_used_in_ids(self):
        bundle = make_bundle(UniformValuationModel(), 3, seed=1, prefix="item")
        assert all(good.good_id.startswith("item-") for good in bundle)


# -- bit-identity oracle: the array kernels against the per-item formulas --


def _reference_item(model, rng):
    """One item as the per-item formulas drew it, with ``rng.uniform``."""
    if isinstance(model, UniformValuationModel):
        return (
            rng.uniform(model.cost_low, model.cost_high),
            rng.uniform(model.value_low, model.value_high),
        )
    if isinstance(model, MarginValuationModel):
        cost = rng.uniform(model.cost_low, model.cost_high)
        margin = rng.uniform(model.margin_low, model.margin_high)
        return cost, cost * (1.0 + margin)
    if isinstance(model, CorrelatedValuationModel):
        cost = rng.uniform(model.cost_low, model.cost_high)
        independent = rng.uniform(model.value_low, model.value_high)
        value = model.correlation * cost + (1.0 - model.correlation) * independent
        return cost, value * model.value_scale
    if isinstance(model, BimodalValuationModel):
        if rng.random() < model.big_fraction:
            low, high = model.big_cost
        else:
            low, high = model.small_cost
        cost = rng.uniform(low, high)
        return cost, cost * (1.0 + model.margin)
    assert isinstance(model, MixtureValuationModel)
    draw = rng.random()
    for component, bound in zip(model._components, model._cumulative.tolist()):
        if draw <= bound:
            return _reference_item(component, rng)
    return _reference_item(model._components[-1], rng)


def _reference_columns(model, rng, n, size):
    """``n`` bundles drawn item by item, clamped with ``max(0.0, x)``."""
    costs, values = [], []
    for _ in range(n * size):
        cost, value = _reference_item(model, rng)
        costs.append(max(0.0, cost))
        values.append(max(0.0, value))
    return costs, values


def _hex(values):
    return [float(value).hex() for value in values]


bound = st.floats(min_value=0.0, max_value=100.0)
width = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0))
signed = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0),
    st.sampled_from([math.inf, -math.inf]),
)
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def ranges(draw, low=bound):
    start = draw(low)
    return start, start + draw(width)


@st.composite
def uniform_models(draw):
    (cost_low, cost_high), (value_low, value_high) = draw(ranges()), draw(ranges())
    return UniformValuationModel(cost_low, cost_high, value_low, value_high)


@st.composite
def margin_models(draw):
    (cost_low, cost_high) = draw(ranges())
    margin_low = draw(st.floats(min_value=-1.0, max_value=2.0))
    return MarginValuationModel(
        cost_low, cost_high, margin_low, margin_low + draw(st.floats(0.0, 2.0))
    )


@st.composite
def correlated_models(draw):
    # The bounds are not validated, so negative values (clamped to 0.0, and
    # -0.0 under a zero scale) and NaN (from infinite bounds) are reachable.
    return CorrelatedValuationModel(
        cost_low=draw(signed),
        cost_high=draw(signed),
        value_low=draw(signed),
        value_high=draw(signed),
        correlation=draw(st.one_of(st.sampled_from([0.0, 1.0]), unit)),
        value_scale=draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
    )


@st.composite
def bimodal_models(draw):
    return BimodalValuationModel(
        small_cost=draw(ranges()),
        big_cost=draw(ranges()),
        big_fraction=draw(st.one_of(st.sampled_from([0.0, 1.0]), unit)),
        margin=draw(st.floats(min_value=-1.0, max_value=2.0)),
    )


simple_models = st.one_of(
    uniform_models(), margin_models(), correlated_models(), bimodal_models()
)


@st.composite
def mixture_models(draw):
    components = draw(st.lists(simple_models, min_size=1, max_size=3))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
            min_size=len(components),
            max_size=len(components),
        ).filter(lambda weights: sum(weights) > 0)
    )
    return MixtureValuationModel(components, weights)


models = st.one_of(
    simple_models,
    mixture_models(),
    st.sampled_from(["ebay", "digital", "teamwork", "stress", "mixed"]).map(
        valuation_workload
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    model=models,
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=0, max_value=4),
    size=st.integers(min_value=0, max_value=7),
)
def test_sample_columns_matches_per_item_formulas_bit_for_bit(model, seed, n, size):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    costs, values = model.sample_columns(rng, n, size)
    expected_costs, expected_values = _reference_columns(model, reference_rng, n, size)
    assert costs.shape == values.shape == (n, size)
    assert _hex(costs.ravel().tolist()) == _hex(expected_costs)
    assert _hex(values.ravel().tolist()) == _hex(expected_values)
    assert rng.getstate() == reference_rng.getstate()


def test_mixture_components_must_take_equal_draws():
    nested = MixtureValuationModel([UniformValuationModel()])
    assert nested.draws == 3
    with pytest.raises(WorkloadError, match="equal draws"):
        MixtureValuationModel([nested, UniformValuationModel()])


def test_sample_bundle_is_one_row_of_sample_columns():
    model = valuation_workload("mixed")
    bundle = model.sample_bundle(random.Random(3), 5, prefix="p")
    costs, values = model.sample_columns(random.Random(3), 1, 5)
    assert bundle.good_ids == tuple(f"p-{index}" for index in range(5))
    assert [good.supplier_cost for good in bundle] == costs[0].tolist()
    assert [good.consumer_value for good in bundle] == values[0].tolist()


# -- the lazily built bundle against one built from goods --

amount = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e-3),
)


def _eager(costs, values, prefix):
    return GoodsBundle(
        Good(f"{prefix}-{index}", float(cost), float(value))
        for index, (cost, value) in enumerate(zip(costs, values))
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(amount, amount), max_size=8))
def test_lazy_bundle_equals_one_built_from_goods(pairs):
    costs = [cost for cost, _ in pairs]
    values = [value for _, value in pairs]
    eager = _eager(costs, values, "p")
    lazy = GoodsBundle.from_valuations(costs, values, "p")
    assert len(lazy) == len(eager) and lazy.is_empty == eager.is_empty
    assert lazy.total_supplier_cost.hex() == eager.total_supplier_cost.hex()
    assert lazy.total_consumer_value.hex() == eager.total_consumer_value.hex()
    assert lazy == eager and hash(lazy) == hash(eager)
    assert lazy.goods == eager.goods
    assert lazy.good_ids == eager.good_ids
    assert all(lazy[good.good_id] == good for good in eager)
    assert [row.tolist() for row in lazy.valuation_rows] == [
        row.tolist() for row in eager.valuation_rows
    ]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0])
@pytest.mark.parametrize("field", ["costs", "values"])
def test_lazy_bundle_rejects_a_bad_valuation_as_goods_do(field, bad):
    rows = {"costs": [1.0, 2.0, 3.0], "values": [2.0, 3.0, 4.0]}
    rows[field][1] = bad
    with pytest.raises(InvalidGoodError) as eager:
        _eager(rows["costs"], rows["values"], "p")
    with pytest.raises(InvalidGoodError) as lazy:
        GoodsBundle.from_valuations(rows["costs"], rows["values"], "p")
    assert str(lazy.value) == str(eager.value)
