"""Tests for the scenario registry and the backend x scenario matrix."""

import pytest

from repro.exceptions import WorkloadError
from repro.simulation.peer import TrustMethod
from repro.trust.backend import BACKEND_NAMES, ComplaintTrustBackend
from repro.workloads.registry import (
    ScenarioDefinition,
    build_registered_scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.workloads.scenarios import SCENARIO_NAMES, build_scenario


class TestCatalogue:
    def test_at_least_ten_scenarios_registered(self):
        assert len(list_scenarios()) >= 10

    def test_repair_scenarios_are_discoverable(self):
        partition = get_scenario("partition-heal")
        assert "repair" in partition.tags
        milking = get_scenario("fluctuating-behaviour")
        assert "milking" in milking.tags

    def test_sybil_coalition_is_discoverable(self):
        definition = get_scenario("sybil-coalition")
        assert "sybil" in definition.tags
        scenario = definition.build(size=10, rounds=3, seed=1)
        assert scenario.config.witness_count > 0

    def test_names_match_legacy_tuple(self):
        assert set(scenario_names()) == set(SCENARIO_NAMES)

    def test_every_entry_has_summary_and_tags(self):
        for definition in list_scenarios():
            assert definition.summary
            assert definition.tags

    def test_get_unknown_scenario_rejected(self):
        with pytest.raises(WorkloadError):
            get_scenario("mars-colony")

    def test_duplicate_registration_rejected(self):
        existing = get_scenario("ebay")
        with pytest.raises(WorkloadError):
            register_scenario(existing)

    def test_replace_registration_allowed(self):
        existing = get_scenario("ebay")
        register_scenario(existing, replace=True)
        assert get_scenario("ebay") is existing

    def test_definition_defaults_are_layered_under_params(self):
        definition = ScenarioDefinition(
            name="tiny-ebay",
            summary="ebay with tiny defaults",
            builder=lambda **params: build_scenario("ebay", **params),
            tags=("test",),
            defaults={"size": 6, "rounds": 2},
        )
        scenario = definition.build(seed=3)
        assert len(scenario.peers) == 6
        overridden = definition.build(size=8, seed=3)
        assert len(overridden.peers) == 8


class TestBackendScenarioMatrix:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("backend", BACKEND_NAMES + ("combined",))
    def test_every_backend_scenario_pair_runs(self, name, backend):
        scenario = build_registered_scenario(
            name, backend=backend, size=8, rounds=2, seed=1
        )
        assert scenario.trust_method == backend
        assert all(peer.trust_method == backend for peer in scenario.peers)
        result = scenario.simulation().run()
        assert result.accounts.attempted > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(WorkloadError):
            build_registered_scenario("ebay", backend="tarot", size=6, rounds=2)


class TestScenarioWiring:
    def test_shared_store_is_a_complaint_backend(self):
        scenario = build_scenario("ebay", size=6, rounds=2, seed=1)
        assert isinstance(scenario.complaint_store, ComplaintTrustBackend)
        backends = {
            id(peer.backend_for(TrustMethod.COMPLAINT))
            for peer in scenario.peers
        }
        # All peers share the single community complaint backend.
        assert backends == {id(scenario.complaint_store)}

    def test_high_churn_scenario_carries_churn_model(self):
        scenario = build_scenario("high-churn", size=9, rounds=3, seed=1)
        assert scenario.churn is not None
        assert scenario.peer_factory is not None
        result = scenario.simulation().run()
        churn_events = [r.churn for r in result.rounds if r.churn is not None]
        assert churn_events

    def test_collusive_witness_population_pollutes_complaints(self):
        scenario = build_scenario(
            "collusive-witness", size=10, rounds=4, dishonest_fraction=0.4, seed=2
        )
        probabilities = {
            peer.behavior.false_complaint_probability for peer in scenario.peers
        }
        assert 0.9 in probabilities
        scenario.simulation().run()
        # The coalition's spurious complaints land in the shared store.
        assert len(scenario.complaint_store.all_complaints()) > 0

    def test_mixed_goods_bundles_are_heterogeneous(self):
        import random

        scenario = build_scenario("mixed-goods", size=6, rounds=2, seed=1)
        model = scenario.config.valuation_model
        rng = random.Random(0)
        costs = [model.sample_item(rng, i)[0] for i in range(200)]
        # Big-ticket physical items and near-free digital goods coexist.
        assert max(costs) > 20.0
        assert min(costs) < 0.5
