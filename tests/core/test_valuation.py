"""Unit tests for the valuation models (bundle generators)."""

import random

import pytest

from repro.core.valuation import (
    BimodalValuationModel,
    CorrelatedValuationModel,
    MarginValuationModel,
    UniformValuationModel,
    make_bundle,
)
from repro.exceptions import WorkloadError


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
