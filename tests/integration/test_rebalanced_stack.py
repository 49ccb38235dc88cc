"""Live rebalancing across the whole stack: forced splits change nothing.

The acceptance bar for live shard rebalancing is the PR-3 sharding
invariant extended through time: a run whose shared complaint store
splits hot shards *mid-run* (``rebalance="auto"`` with an aggressive
threshold, so splits actually happen) produces the same trust state and
the same economic outcome as the same-seed unsharded run — beta/decay
trust snapshots agree within 1e-9 (they are bit-identical in practice;
the tolerance is the stated contract) and complaint counts agree
exactly — on the scenarios that stress the sharding layer: flash-crowd
(growing id space), high-churn (turnover) and partition-heal (async
evidence with gossip repair).  Peers' own backends never shard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.peer import TrustMethod
from repro.trust import ShardedBackend
from repro.trust.sharding import HashShardRouter, RangeShardRouter, RingShardRouter
from repro.workloads import build_registered_scenario

#: scenario -> the backend kind its rebalanced run exercises.
SCENARIOS = {
    "flash-crowd": "beta",
    "high-churn": "decay",
    "partition-heal": "complaint",
}


def _run(name, backend, seed, size, rounds, rebalance="off", **sharding):
    scenario = build_registered_scenario(
        name,
        size=size,
        rounds=rounds,
        seed=seed,
        backend=backend,
        rebalance=rebalance,
        **sharding,
    )
    simulation = scenario.simulation()
    result = simulation.run()
    method = TrustMethod.BETA if backend == "combined" else backend
    trust = {
        peer.peer_id: peer.backend_for(method).scores_snapshot()
        for peer in simulation.peers
    }
    return scenario, simulation, result, trust


def _split_count(scenario) -> int:
    return len(scenario.complaint_store.rebalance_events)


def _assert_equivalent(baseline, rebalanced):
    base_result, base_trust = baseline
    reb_result, reb_trust = rebalanced
    assert base_result.accounts.completed == reb_result.accounts.completed
    assert base_result.accounts.declined == reb_result.accounts.declined
    assert base_result.accounts.defections == reb_result.accounts.defections
    assert base_result.total_welfare == reb_result.total_welfare
    assert set(base_trust) == set(reb_trust)
    for peer_id, snapshot in base_trust.items():
        other = reb_trust[peer_id]
        assert set(snapshot) == set(other)
        for subject, score in snapshot.items():
            assert abs(score - other[subject]) <= 1e-9, (
                f"{peer_id} -> {subject}: {score} vs {other[subject]}"
            )


def _assert_complaint_counts_exact(base_store, rebalanced_store):
    base_agents = sorted(base_store.known_subjects())
    assert base_agents == sorted(rebalanced_store.known_subjects())
    for agent in base_agents:
        assert base_store.counts(agent) == rebalanced_store.counts(agent)
    assert base_store.reference_metric() == rebalanced_store.reference_metric()


class TestForcedMidRunSplits:
    """Deterministic anchors: splits demonstrably happen, results match."""

    @pytest.mark.parametrize("name,backend", sorted(SCENARIOS.items()))
    def test_forced_splits_are_outcome_invisible(self, name, backend):
        # Size 16 keeps every backend above the policy's min-rows floor, so
        # the 1.05 threshold reliably forces splits on all three scenarios.
        base_scenario, _, base_result, base_trust = _run(
            name, backend, seed=2, size=16, rounds=8
        )
        reb_scenario, _, reb_result, reb_trust = _run(
            name, backend, seed=2, size=16, rounds=8,
            shards=2, rebalance="auto", rebalance_threshold=1.05, max_shards=32,
        )
        assert _split_count(reb_scenario) > 0, (
            "the aggressive threshold should force mid-run splits"
        )
        _assert_equivalent((base_result, base_trust), (reb_result, reb_trust))
        _assert_complaint_counts_exact(
            base_scenario.complaint_store, reb_scenario.complaint_store
        )

    def test_flash_crowd_grows_from_a_single_shard(self):
        """rebalance='auto' at shards=1: the capacity trigger bootstraps."""
        base_scenario, _, base_result, base_trust = _run(
            "flash-crowd", "beta", seed=3, size=12, rounds=10
        )
        reb_scenario, reb_sim, reb_result, reb_trust = _run(
            "flash-crowd", "beta", seed=3, size=12, rounds=10,
            shards=1, rebalance="auto",
        )
        store = reb_scenario.complaint_store
        assert isinstance(store, ShardedBackend)
        assert store.num_shards > 1, "the store should outgrow one shard"
        _assert_equivalent((base_result, base_trust), (reb_result, reb_trust))
        _assert_complaint_counts_exact(base_scenario.complaint_store, store)

    def test_rebalanced_decisions_bit_identical(self):
        """The binary complaint decision (the paper's rule) matches too."""
        base_scenario, base_sim, _, _ = _run(
            "partition-heal", "complaint", seed=5, size=10, rounds=8
        )
        reb_scenario, reb_sim, _, _ = _run(
            "partition-heal", "complaint", seed=5, size=10, rounds=8,
            shards=3, shard_router="range",
            rebalance="auto", rebalance_threshold=1.05, max_shards=32,
        )
        subjects = sorted(
            peer.peer_id for peer in base_sim.peers
        )
        np.testing.assert_array_equal(
            base_scenario.complaint_store.trust_decisions(subjects),
            reb_scenario.complaint_store.trust_decisions(subjects),
        )


def test_only_the_shared_store_rebalances():
    """Live splits happen in the shared complaint store; every peer's own
    backends, live or churned out, stay plain."""
    scenario = build_registered_scenario(
        "high-churn", size=16, rounds=12, seed=2,
        shards=2, rebalance="auto", rebalance_threshold=1.05, max_shards=32,
    )
    simulation = scenario.simulation()
    simulation.run()
    departed = simulation.departed_peers
    assert departed, "high-churn should have churned somebody out"
    live_ids = {peer.peer_id for peer in simulation.peers}
    assert live_ids.isdisjoint(peer.peer_id for peer in departed)
    assert _split_count(scenario) > 0
    for peer in simulation.peers + departed:
        assert not isinstance(
            peer.backend_for(TrustMethod.BETA), ShardedBackend
        )


def test_match_scoring_does_no_shard_routing(monkeypatch):
    """Routing work follows store traffic, not consumers x suppliers.

    Each consumer scores every supplier every round; were those reads
    routed through sharded per-peer backends, ``shard_of`` calls would grow
    with consumers x suppliers (15-60 per attempted exchange at this size).
    Only the shared store routes, in batches, which stays below one call
    per exchange.
    """
    calls = []
    for router in (HashShardRouter, RangeShardRouter, RingShardRouter):
        original = vars(router)["shard_of"]

        def counted(self, peer_id, _original=original):
            calls.append(peer_id)
            return _original(self, peer_id)

        monkeypatch.setattr(router, "shard_of", counted)
    scenario = build_registered_scenario(
        "flash-crowd", size=60, rounds=5, seed=1, shards=2, rebalance="auto"
    )
    result = scenario.simulation().run()
    assert result.accounts.attempted > 0
    assert 0 < len(calls) <= result.accounts.attempted


@settings(deadline=None, max_examples=8)
@given(
    name=st.sampled_from(sorted(SCENARIOS)),
    seed=st.integers(min_value=0, max_value=40),
    size=st.integers(min_value=8, max_value=12),
    shards=st.integers(min_value=1, max_value=3),
    router=st.sampled_from(("range", "ring")),
)
def test_property_rebalanced_run_matches_unsharded(name, seed, size, shards, router):
    """Any seed/size/layout: an auto-rebalanced run equals the unsharded one.

    The aggressive threshold forces splits on most draws (not asserted per
    example — a perfectly balanced draw may not split); equality must hold
    regardless of how many splits fired or when.
    """
    backend = SCENARIOS[name]
    base_scenario, _, base_result, base_trust = _run(
        name, backend, seed=seed, size=size, rounds=6
    )
    reb_scenario, _, reb_result, reb_trust = _run(
        name, backend, seed=seed, size=size, rounds=6,
        shards=shards, shard_router=router,
        rebalance="auto", rebalance_threshold=1.05, max_shards=32,
    )
    _assert_equivalent((base_result, base_trust), (reb_result, reb_trust))
    _assert_complaint_counts_exact(
        base_scenario.complaint_store, reb_scenario.complaint_store
    )
