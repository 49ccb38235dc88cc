"""Tests of the end-to-end community simulation."""

import math

import pytest

from repro.baselines import GoodsFirstStrategy, SafeOnlyStrategy
from repro.exceptions import SimulationError
from repro.marketplace import TrustAwareStrategy
from repro.simulation.behaviors import HonestBehavior, RationalDefectorBehavior
from repro.simulation.churn import ChurnModel
from repro.simulation.community import (
    CommunityConfig,
    CommunitySimulation,
)
from repro.simulation.peer import CommunityPeer
from repro.trust import create_backend
from repro.workloads.populations import PopulationSpec, build_population


def small_population(dishonest=0.3, size=10, shared_store=None, penalty=0.0):
    spec = PopulationSpec(
        size=size,
        honest_fraction=1.0 - dishonest,
        dishonest_fraction=dishonest,
        probabilistic_fraction=0.0,
        defection_penalty=penalty,
    )
    return build_population(spec, complaint_store=shared_store, seed=1)


def per_peer_scan(ledger, agent_id):
    """The per-peer ``Ledger.victim_losses`` scan this module pins against."""
    losses = 0.0
    for entry in ledger.entries:
        if entry.agent_id == agent_id and entry.was_victim and entry.payoff < 0:
            losses += -entry.payoff
    return losses


class TestCommunityConfig:
    def test_defaults_valid(self):
        config = CommunityConfig()
        assert config.valuation_model is not None

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            CommunityConfig(rounds=0)
        with pytest.raises(SimulationError):
            CommunityConfig(bundle_size=0)
        with pytest.raises(SimulationError):
            CommunityConfig(matching="psychic")
        with pytest.raises(SimulationError):
            CommunityConfig(supplier_surplus_share=2.0)
        # Non-finite values fail like out-of-range ones instead of running
        # on NaN event times (or dividing by an infinite mean later).
        for bad in (math.inf, math.nan):
            with pytest.raises(SimulationError):
                CommunityConfig(evidence_mode="async", evidence_latency=bad)
            with pytest.raises(SimulationError):
                CommunityConfig(defection_penalty=bad)
            with pytest.raises(SimulationError):
                CommunityConfig(
                    evidence_mode="async", evidence_repair="gossip", gossip_period=bad
                )


class TestCommunitySimulation:
    def test_requires_two_peers(self):
        with pytest.raises(SimulationError):
            CommunitySimulation([CommunityPeer("solo")], GoodsFirstStrategy())

    def test_run_produces_consistent_accounts(self):
        peers = small_population()
        config = CommunityConfig(rounds=10, seed=3)
        result = CommunitySimulation(peers, GoodsFirstStrategy(), config).run()
        accounts = result.accounts
        assert accounts.attempted == accounts.executed + accounts.declined
        assert accounts.completed + accounts.defections == accounts.executed
        assert accounts.attempted > 0
        assert len(result.rounds) == 10
        assert sum(r.accounts.attempted for r in result.rounds) == accounts.attempted

    def test_reproducible_with_same_seed(self):
        config = CommunityConfig(rounds=8, seed=11)
        result_a = CommunitySimulation(
            small_population(), GoodsFirstStrategy(), config
        ).run()
        result_b = CommunitySimulation(
            small_population(), GoodsFirstStrategy(), config
        ).run()
        assert result_a.accounts.total_welfare == pytest.approx(
            result_b.accounts.total_welfare
        )
        assert result_a.accounts.completed == result_b.accounts.completed

    def test_different_seeds_differ(self):
        result_a = CommunitySimulation(
            small_population(), GoodsFirstStrategy(), CommunityConfig(rounds=8, seed=1)
        ).run()
        result_b = CommunitySimulation(
            small_population(), GoodsFirstStrategy(), CommunityConfig(rounds=8, seed=2)
        ).run()
        assert result_a.accounts.total_welfare != pytest.approx(
            result_b.accounts.total_welfare
        )

    def test_all_honest_community_never_defects(self):
        peers = [CommunityPeer(f"h{i}", behavior=HonestBehavior()) for i in range(8)]
        config = CommunityConfig(rounds=6, seed=5)
        result = CommunitySimulation(peers, GoodsFirstStrategy(), config).run()
        assert result.accounts.defections == 0
        assert result.accounts.completion_rate == pytest.approx(1.0)
        assert result.victim_losses == 0.0

    def test_all_dishonest_with_goods_first_always_defects(self):
        peers = [
            CommunityPeer(f"d{i}", behavior=RationalDefectorBehavior())
            for i in range(8)
        ]
        config = CommunityConfig(rounds=4, seed=5)
        result = CommunitySimulation(peers, GoodsFirstStrategy(), config).run()
        assert result.accounts.completed == 0
        assert result.accounts.defections == result.accounts.executed > 0

    def test_safe_only_never_loses_value(self):
        # With no reputation continuation the safe-only strategy only
        # schedules *fully* safe exchanges, in which a defector (even one
        # that ignores any future-business argument) never finds a
        # profitable defection point — so honest peers never lose value.
        peers = small_population(dishonest=0.5, penalty=0.0)
        config = CommunityConfig(rounds=8, seed=7, defection_penalty=0.0)
        result = CommunitySimulation(peers, SafeOnlyStrategy(), config).run()
        assert result.honest_losses() <= 1e-9

    def test_trust_aware_reduces_losses_compared_to_naive(self):
        shared = create_backend("complaint", metric_mode="balanced")
        config = CommunityConfig(rounds=25, seed=13)
        naive = CommunitySimulation(
            small_population(
                dishonest=0.4,
                shared_store=create_backend("complaint", metric_mode="balanced"),
            ),
            GoodsFirstStrategy(),
            config,
        ).run()
        aware = CommunitySimulation(
            small_population(dishonest=0.4, shared_store=shared),
            TrustAwareStrategy(),
            config,
        ).run()
        assert aware.honest_losses() < naive.honest_losses()
        assert aware.honest_welfare() > naive.honest_welfare()

    def test_trust_matching_uses_reputation(self):
        peers = small_population(dishonest=0.3)
        config = CommunityConfig(rounds=6, seed=9, matching="trust")
        result = CommunitySimulation(peers, TrustAwareStrategy(), config).run()
        assert result.accounts.attempted > 0

    def test_collect_outcomes(self):
        peers = small_population(size=6)
        config = CommunityConfig(rounds=3, seed=2)
        result = CommunitySimulation(peers, GoodsFirstStrategy(), config).run(
            collect_outcomes=True
        )
        assert len(result.outcomes) == result.accounts.attempted

    def test_welfare_and_completion_series_lengths(self):
        peers = small_population(size=6)
        config = CommunityConfig(rounds=5, seed=2)
        result = CommunitySimulation(peers, GoodsFirstStrategy(), config).run()
        assert len(result.welfare_series()) == 5
        assert len(result.completion_series()) == 5

    def test_honest_peer_ids(self):
        peers = small_population(dishonest=0.5, size=10)
        config = CommunityConfig(rounds=2, seed=2)
        result = CommunitySimulation(peers, GoodsFirstStrategy(), config).run()
        honest = result.honest_peer_ids()
        assert 0 < len(honest) < 10

    def test_churn_changes_population(self):
        peers = small_population(size=10)
        spec = PopulationSpec(size=10)
        churn = ChurnModel(departure_probability=0.2, arrival_rate=1.0, min_population=4)
        config = CommunityConfig(rounds=10, seed=4)
        simulation = CommunitySimulation(
            peers,
            GoodsFirstStrategy(),
            config,
            churn=churn,
            peer_factory=lambda index: CommunityPeer(f"new-{index}"),
        )
        result = simulation.run()
        churn_events = [r.churn for r in result.rounds if r.churn is not None]
        assert churn_events
        assert any(event.arrived or event.departed for event in churn_events)

    def test_churn_with_arrivals_requires_factory(self):
        peers = small_population(size=6)
        churn = ChurnModel(arrival_rate=1.0)
        with pytest.raises(SimulationError):
            CommunitySimulation(peers, GoodsFirstStrategy(), churn=churn)

    def test_unknown_peer_lookup_raises(self):
        peers = small_population(size=6)
        simulation = CommunitySimulation(peers, GoodsFirstStrategy())
        with pytest.raises(SimulationError):
            simulation.peer_by_id("ghost")

    def test_peer_lookup_follows_churn(self):
        peers = small_population(size=10)
        churn = ChurnModel(departure_probability=0.3, arrival_rate=2.0, min_population=4)
        simulation = CommunitySimulation(
            peers,
            GoodsFirstStrategy(),
            CommunityConfig(rounds=6, seed=4),
            churn=churn,
            peer_factory=lambda index: CommunityPeer(f"new-{index}"),
        )
        simulation.run()
        assert simulation.departed_peers
        assert any(peer.peer_id.startswith("new-") for peer in simulation.peers)
        for peer in simulation.peers:
            assert simulation.peer_by_id(peer.peer_id) is peer
        for peer in simulation.departed_peers:
            with pytest.raises(SimulationError):
                simulation.peer_by_id(peer.peer_id)

    def test_honest_losses_equal_per_peer_ledger_sum(self):
        peers = small_population(dishonest=0.4, size=12)
        config = CommunityConfig(rounds=10, seed=5)
        result = CommunitySimulation(peers, GoodsFirstStrategy(), config).run()
        per_peer = sum(
            per_peer_scan(result.ledger, peer_id)
            for peer_id in result.honest_peer_ids()
        )
        assert per_peer > 0
        assert result.honest_losses() == per_peer
        by_agent = result.ledger.victim_losses_by_agent()
        for entry in result.ledger.entries:
            expected = per_peer_scan(result.ledger, entry.agent_id)
            assert by_agent.get(entry.agent_id, 0.0) == expected
            assert result.ledger.victim_losses(entry.agent_id) == expected
