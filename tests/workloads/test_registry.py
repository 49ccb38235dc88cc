"""Tests for the scenario table and the backend x scenario matrix."""

import pytest

from repro.exceptions import WorkloadError
from repro.simulation.peer import TrustMethod
from repro.trust import ShardedBackend
from repro.trust.backend import BACKEND_NAMES, ComplaintTrustBackend
from repro.workloads.registry import (
    SCENARIOS,
    build_registered_scenario,
    scenario_names,
)


class TestTable:
    def test_ten_scenarios_in_table_order(self):
        assert scenario_names() == (
            "ebay",
            "p2p-file-trading",
            "teamwork",
            "high-churn",
            "collusive-witness",
            "mixed-goods",
            "sybil-coalition",
            "flash-crowd",
            "partition-heal",
            "fluctuating-behaviour",
        )

    def test_repair_scenarios_are_tagged(self):
        assert "repair" in SCENARIOS["partition-heal"].tags
        assert "milking" in SCENARIOS["fluctuating-behaviour"].tags

    def test_sybil_coalition_polls_witnesses(self):
        assert "sybil" in SCENARIOS["sybil-coalition"].tags
        scenario = build_registered_scenario("sybil-coalition", size=10, rounds=3, seed=1)
        assert scenario.config.witness_count > 0

    def test_every_row_has_summary_and_tags(self):
        for row in SCENARIOS.values():
            assert row.summary
            assert row.tags

    def test_unknown_scenario_rejected(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            build_registered_scenario("mars-colony")

    @pytest.mark.parametrize(
        "name, backend",
        [
            ("ebay", TrustMethod.BETA),
            ("partition-heal", TrustMethod.COMPLAINT),
            ("fluctuating-behaviour", TrustMethod.DECAY),
        ],
    )
    def test_backend_none_means_row_default(self, name, backend):
        scenario = build_registered_scenario(name, size=8, rounds=2, seed=1)
        assert scenario.trust_method == backend

    @pytest.mark.parametrize("name", scenario_names())
    def test_rebalance_none_means_row_default(self, name):
        scenario = build_registered_scenario(name, size=8, rounds=2, seed=1)
        store = scenario.complaint_store
        rebalanced = isinstance(store, ShardedBackend) and store.rebalance_policy is not None
        assert rebalanced == (SCENARIOS[name].rebalance == "auto")
        explicit = build_registered_scenario(name, size=8, rounds=2, seed=1, rebalance="off")
        assert not isinstance(explicit.complaint_store, ShardedBackend)

    def test_teamwork_floors_the_defection_penalty(self):
        low = build_registered_scenario("teamwork", size=8, rounds=2, seed=1)
        assert low.config.defection_penalty == 2.0
        assert all(peer.defection_penalty == 2.0 for peer in low.peers)
        high = build_registered_scenario(
            "teamwork", size=8, rounds=2, seed=1, defection_penalty=3.0
        )
        assert high.config.defection_penalty == 3.0

    def test_other_rows_reject_a_negative_penalty(self):
        with pytest.raises(WorkloadError, match="defection_penalty"):
            build_registered_scenario("ebay", size=8, rounds=2, defection_penalty=-1.0)


class TestBackendScenarioMatrix:
    @pytest.mark.parametrize("name", scenario_names())
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
        scenario = build_registered_scenario("ebay", size=6, rounds=2, seed=1)
        assert isinstance(scenario.complaint_store, ComplaintTrustBackend)
        backends = {
            id(peer.backend_for(TrustMethod.COMPLAINT))
            for peer in scenario.peers
        }
        # All peers share the single community complaint backend.
        assert backends == {id(scenario.complaint_store)}

    def test_high_churn_scenario_carries_churn_model(self):
        scenario = build_registered_scenario("high-churn", size=9, rounds=3, seed=1)
        assert scenario.churn is not None
        assert scenario.peer_factory is not None
        result = scenario.simulation().run()
        churn_events = [r.churn for r in result.rounds if r.churn is not None]
        assert churn_events

    def test_collusive_witness_population_pollutes_complaints(self):
        scenario = build_registered_scenario(
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

        scenario = build_registered_scenario("mixed-goods", size=6, rounds=2, seed=1)
        model = scenario.config.valuation_model
        rng = random.Random(0)
        costs = model.sample_columns(rng, 1, 200)[0][0].tolist()
        # Big-ticket physical items and near-free digital goods coexist.
        assert max(costs) > 20.0
        assert min(costs) < 0.5
