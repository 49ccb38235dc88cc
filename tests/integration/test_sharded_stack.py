"""Sharding across the whole stack: scenarios, peers, evidence, CLI knob.

The acceptance bar for the sharded-backend refactor is that ``--shards N``
is *invisible* end to end: every scenario, run with any backend kind,
produces identical trust scores, decisions and economic outcomes whether
the trust state lives in one arena or is partitioned across N shards.
"""

import numpy as np
import pytest

from repro.reputation.records import InteractionRecord
from repro.simulation.peer import CommunityPeer, TrustMethod
from repro.trust import ShardedBackend, create_backend
from repro.workloads import build_registered_scenario, scenario_names


def _run_scenario(name, backend, shards, size=10, rounds=6, seed=3):
    scenario = build_registered_scenario(
        name,
        size=size,
        rounds=rounds,
        seed=seed,
        backend=backend,
        shards=shards,
        rebalance="off",
    )
    simulation = scenario.simulation()
    result = simulation.run()
    method = TrustMethod.BETA if backend == "combined" else backend
    trust = {
        peer.peer_id: peer.backend_for(method).scores_snapshot()
        for peer in simulation.peers
    }
    return result, trust


class TestScenarioEquivalence:
    @pytest.mark.parametrize("backend", ("beta", "complaint", "decay"))
    def test_sharded_run_identical_to_unsharded(self, backend):
        """The headline guarantee, for all three backend kinds."""
        baseline_result, baseline_trust = _run_scenario(
            "p2p-file-trading", backend, shards=1
        )
        sharded_result, sharded_trust = _run_scenario(
            "p2p-file-trading", backend, shards=4
        )
        assert baseline_result.accounts.completed == sharded_result.accounts.completed
        assert baseline_result.accounts.declined == sharded_result.accounts.declined
        assert (
            baseline_result.accounts.defections
            == sharded_result.accounts.defections
        )
        assert baseline_result.total_welfare == sharded_result.total_welfare
        assert baseline_trust == sharded_trust

    def test_witness_plane_identical_under_sharding(self):
        """sybil-coalition exercises the witness-aggregation scatter path."""
        baseline_result, baseline_trust = _run_scenario(
            "sybil-coalition", "beta", shards=1
        )
        sharded_result, sharded_trust = _run_scenario(
            "sybil-coalition", "beta", shards=3
        )
        assert baseline_result.total_welfare == sharded_result.total_welfare
        assert baseline_trust == sharded_trust

    def test_every_registered_scenario_runs_sharded(self):
        for name in scenario_names():
            scenario = build_registered_scenario(
                name, size=8, rounds=3, seed=1, backend="beta", shards=2,
                rebalance="off",
            )
            result = scenario.simulation().run()
            assert result.accounts.attempted >= 0


class TestFlashCrowdScenario:
    def test_flash_crowd_grows_the_population(self):
        scenario = build_registered_scenario(
            "flash-crowd", size=10, rounds=8, seed=2, rebalance="off"
        )
        simulation = scenario.simulation()
        simulation.run()
        arrivals = [
            peer for peer in simulation.peers if peer.peer_id.startswith("flash-new-")
        ]
        assert len(simulation.peers) > 10
        assert arrivals, "burst arrivals should join the community"

    def test_flash_crowd_sharded_matches_unsharded(self):
        baseline_result, baseline_trust = _run_scenario(
            "flash-crowd", "beta", shards=1, rounds=8
        )
        sharded_result, sharded_trust = _run_scenario(
            "flash-crowd", "beta", shards=4, rounds=8
        )
        assert baseline_result.total_welfare == sharded_result.total_welfare
        assert baseline_trust == sharded_trust


class TestPlainPeerBackends:
    """Sharding applies to the shared complaint store, never to a peer's own
    backends."""

    def test_peer_backends_are_plain(self):
        peer = CommunityPeer("me")
        for method in (TrustMethod.BETA, TrustMethod.COMPLAINT, TrustMethod.DECAY):
            assert not isinstance(peer.backend_for(method), ShardedBackend)

    def test_sharded_scenario_shards_only_the_store(self):
        scenario = build_registered_scenario(
            "high-churn", size=10, rounds=6, seed=3, shards=4, rebalance="off"
        )
        simulation = scenario.simulation()
        simulation.run()
        store = scenario.complaint_store
        assert isinstance(store, ShardedBackend) and store.num_shards == 4
        for peer in simulation.peers + simulation.departed_peers:
            assert peer.backend_for(TrustMethod.COMPLAINT) is store
            assert not isinstance(
                peer.backend_for(TrustMethod.BETA), ShardedBackend
            )

    def test_peer_over_sharded_store_matches_plain_store(self):
        plain = CommunityPeer("me", complaint_store=create_backend("complaint"))
        sharded = CommunityPeer(
            "me",
            complaint_store=create_backend("complaint", shards=3, router="range"),
        )
        partners = [f"partner-{index}" for index in range(8)]
        for index, partner in enumerate(partners * 3):
            record = InteractionRecord(
                supplier_id=partner,
                consumer_id="me",
                completed=index % 3 != 0,
                defector="supplier" if index % 3 == 0 else None,
                value=5.0,
                timestamp=float(index),
            )
            plain.observe_outcome(record)
            sharded.observe_outcome(record)
        for method in TrustMethod.ALL:
            plain.trust_method = sharded.trust_method = method
            np.testing.assert_array_equal(
                plain.trust_in_many(partners), sharded.trust_in_many(partners)
            )
        np.testing.assert_array_equal(
            plain.backend_for(TrustMethod.COMPLAINT).trust_decisions(partners),
            sharded.backend_for(TrustMethod.COMPLAINT).trust_decisions(partners),
        )
