"""Unit tests for valuation workloads, populations and scenarios."""

import math

import pytest

from repro.exceptions import WorkloadError
from repro.marketplace import TrustAwareStrategy
from repro.baselines import GoodsFirstStrategy
from repro.simulation.behaviors import (
    HonestBehavior,
    OpportunisticBehavior,
    ProbabilisticBehavior,
    RationalDefectorBehavior,
)
from repro.trust import create_backend
from repro.workloads.populations import (
    PopulationSpec,
    build_population,
    population_factory,
)
from repro.workloads.registry import build_registered_scenario, scenario_names
from repro.workloads.valuations import (
    digital_goods_valuations,
    ebay_auction_valuations,
    stress_deficit_valuations,
    teamwork_service_valuations,
    valuation_workload,
    workload_bundle,
)


class TestValuationWorkloads:
    def test_named_lookup(self):
        for name in ("ebay", "digital", "teamwork", "stress"):
            model = valuation_workload(name)
            bundle = workload_bundle(name, size=10, seed=1)
            assert len(bundle) == 10

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            valuation_workload("quantum")

    def test_digital_goods_have_tiny_costs(self):
        bundle = workload_bundle("digital", 50, seed=2)
        assert bundle.total_supplier_cost < bundle.total_consumer_value
        assert max(good.supplier_cost for good in bundle) <= 0.5

    def test_ebay_has_big_ticket_items(self):
        bundle = workload_bundle("ebay", 100, seed=3)
        assert max(good.supplier_cost for good in bundle) >= 25.0

    def test_stress_workload_has_deficit_items(self):
        bundle = workload_bundle("stress", 100, seed=4)
        assert any(not good.is_surplus_item for good in bundle)

    def test_factories_return_fresh_models(self):
        assert ebay_auction_valuations() is not ebay_auction_valuations()
        assert digital_goods_valuations() is not None
        assert teamwork_service_valuations() is not None
        assert stress_deficit_valuations() is not None


class TestPopulationSpec:
    def test_composition_matches_fractions(self):
        spec = PopulationSpec(
            size=20,
            honest_fraction=0.5,
            dishonest_fraction=0.25,
            opportunist_fraction=0.25,
            probabilistic_fraction=0.0,
        )
        peers = build_population(spec, seed=1)
        behaviors = [type(peer.behavior) for peer in peers]
        assert behaviors.count(HonestBehavior) == 10
        assert behaviors.count(RationalDefectorBehavior) == 5
        assert behaviors.count(OpportunisticBehavior) == 5

    def test_remainder_is_probabilistic(self):
        spec = PopulationSpec(
            size=10, honest_fraction=0.5, dishonest_fraction=0.2,
            probabilistic_fraction=0.3,
        )
        peers = build_population(spec, seed=1)
        assert any(isinstance(peer.behavior, ProbabilisticBehavior) for peer in peers)

    def test_unique_ids(self):
        peers = build_population(PopulationSpec(size=30), seed=1)
        assert len({peer.peer_id for peer in peers}) == 30

    def test_shared_complaint_store_wired(self):
        store = create_backend("complaint", metric_mode="balanced")
        peers = build_population(PopulationSpec(size=4), complaint_store=store, seed=1)
        assert all(peer.backend_for("complaint") is store for peer in peers)

    def test_defection_penalty_applied(self):
        peers = build_population(
            PopulationSpec(size=4, defection_penalty=3.0), seed=1
        )
        assert all(peer.defection_penalty == 3.0 for peer in peers)

    def test_invalid_fractions(self):
        with pytest.raises(WorkloadError):
            PopulationSpec(size=10, honest_fraction=0.8, dishonest_fraction=0.5)
        with pytest.raises(WorkloadError):
            PopulationSpec(size=1)
        with pytest.raises(WorkloadError):
            PopulationSpec(size=10, honest_fraction=-0.1)
        for bad in (math.inf, math.nan):
            with pytest.raises(WorkloadError):
                PopulationSpec(size=10, dishonest_fraction=bad)
            with pytest.raises(WorkloadError):
                PopulationSpec(size=10, defection_penalty=bad)

    def test_true_honesty_of_pure_population(self):
        peers = build_population(
            PopulationSpec(size=10, honest_fraction=0.5, dishonest_fraction=0.5,
                           probabilistic_fraction=0.0),
            seed=1,
        )
        assert {peer.true_honesty for peer in peers} == {0.0, 1.0}

    def test_population_factory_produces_new_peers(self):
        spec = PopulationSpec(size=10)
        factory = population_factory(spec, seed=5)
        peer_a = factory(1)
        peer_b = factory(2)
        assert peer_a.peer_id != peer_b.peer_id


class TestScenarios:
    def test_all_named_scenarios_build_and_run(self):
        for name in scenario_names():
            scenario = build_registered_scenario(name, size=10, rounds=3, seed=1)
            assert scenario.name == name
            assert len(scenario.peers) == 10
            result = scenario.simulation(GoodsFirstStrategy()).run()
            assert result.accounts.attempted > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(WorkloadError):
            build_registered_scenario("mars-colony")

    def test_default_strategy_is_trust_aware(self):
        scenario = build_registered_scenario("ebay", size=8, rounds=2, seed=1)
        simulation = scenario.simulation()
        assert isinstance(simulation._strategy, TrustAwareStrategy)  # noqa: SLF001

    def test_dishonest_fraction_parameter(self):
        scenario = build_registered_scenario(
            "ebay", size=20, rounds=2, dishonest_fraction=0.5, seed=1
        )
        dishonest = [
            peer for peer in scenario.peers
            if isinstance(peer.behavior, RationalDefectorBehavior)
        ]
        assert len(dishonest) == 10
