"""Integration tests across the whole stack.

These tests exercise the paper's main qualitative claims end to end:

* strictly safe isolated exchanges are impossible, reputation continuation
  makes them possible (Section 2),
* trust-aware exposure makes exchanges possible that are not fully safe, and
  the realised losses stay within the accepted exposure (Section 3),
* the full community loop (reputation -> trust -> decision -> exchange ->
  reputation) learns to avoid dishonest peers, and
* the distributed (P-Grid-backed) complaint store supports the same trust
  decisions as a local store.
"""

import random

import pytest

from repro.baselines import GoodsFirstStrategy, SafeOnlyStrategy
from repro.core.decision import ExpectedLossBudgetPolicy
from repro.core.goods import Good, GoodsBundle
from repro.core.planner import plan_exchange
from repro.core.safety import ExchangeRequirements
from repro.core.trust_aware import plan_trust_aware_exchange
from repro.marketplace import TrustAwareStrategy, execute_sequence
from repro.pgrid import PGridNetwork
from repro.reputation import DistributedReputationStore
from repro.reputation.records import InteractionRecord
from repro.simulation.behaviors import HonestBehavior, RationalDefectorBehavior
from repro.simulation.community import CommunityConfig, CommunitySimulation
from repro.simulation.peer import CommunityPeer
from repro.trust import create_backend
from repro.trust.complaint import ComplaintTrustModel
from repro.trust.metrics import mean_absolute_error
from repro.workloads import (
    PopulationSpec,
    build_population,
    build_registered_scenario,
)


class TestSafeExchangeClaims:
    def test_isolated_strict_exchange_impossible_but_reputation_helps(self):
        bundle = GoodsBundle.from_valuations([2.0, 3.0, 4.0], [4.0, 5.0, 7.0])
        price = 11.0
        assert plan_exchange(bundle, price, ExchangeRequirements.isolated_strict()) is None
        with_reputation = ExchangeRequirements.with_reputation(
            supplier_defection_penalty=5.0, consumer_defection_penalty=5.0, strict=True
        )
        assert plan_exchange(bundle, price, with_reputation) is not None

    def test_trust_enables_otherwise_impossible_exchange_and_bounds_loss(self):
        bundle = GoodsBundle([Good(good_id="x", supplier_cost=8.0, consumer_value=16.0)])
        price = 12.0
        plan = plan_trust_aware_exchange(
            bundle,
            price,
            supplier_trust_in_consumer=0.9,
            consumer_trust_in_supplier=0.9,
            supplier_policy=ExpectedLossBudgetPolicy(budget_fraction=1.0),
            consumer_policy=ExpectedLossBudgetPolicy(budget_fraction=1.0),
        )
        assert plan.agreed
        # Execute against a supplier that defects at every opportunity: the
        # consumer's realised loss never exceeds the exposure it accepted.
        result = execute_sequence(
            plan.sequence,
            RationalDefectorBehavior(),
            HonestBehavior(),
            random.Random(0),
        )
        consumer_exposure = plan.requirements.consumer_accepted_exposure
        assert result.consumer_payoff >= -consumer_exposure - 1e-9

    def test_fully_safe_schedule_immune_to_rational_defectors(self):
        bundle = GoodsBundle.from_valuations([1.0, 1.0, 1.0], [3.0, 3.0, 3.0])
        price = 4.0
        requirements = ExchangeRequirements.with_reputation(1.5, 1.5)
        sequence = plan_exchange(bundle, price, requirements)
        assert sequence is not None
        # Rational defectors with exactly those continuation values never
        # find a profitable defection: their temptation never exceeds the
        # penalty, so the exchange completes.
        supplier = RationalDefectorBehavior(epsilon=1.5)
        consumer = RationalDefectorBehavior(epsilon=1.5)
        result = execute_sequence(sequence, supplier, consumer, random.Random(1))
        assert result.completed


class TestReputationLoop:
    def test_community_learns_to_avoid_defectors(self):
        shared = create_backend("complaint", metric_mode="balanced")
        spec = PopulationSpec(
            size=16,
            honest_fraction=0.625,
            dishonest_fraction=0.375,
            probabilistic_fraction=0.0,
        )
        peers = build_population(spec, complaint_store=shared, seed=3)
        config = CommunityConfig(rounds=40, seed=3)
        result = CommunitySimulation(peers, TrustAwareStrategy(), config).run()
        # Honest peers' estimates of the dishonest peers drop well below the
        # estimates of honest peers.
        honest_peer = next(p for p in peers if p.true_honesty == 1.0)
        estimates = honest_peer.backend_for("beta").scores_snapshot()
        dishonest_ids = [p.peer_id for p in peers if p.true_honesty == 0.0]
        honest_ids = [
            p.peer_id for p in peers
            if p.true_honesty == 1.0 and p.peer_id != honest_peer.peer_id
        ]
        known_dishonest = [estimates[i] for i in dishonest_ids if i in estimates]
        known_honest = [estimates[i] for i in honest_ids if i in estimates]
        assert known_dishonest and known_honest
        assert max(known_dishonest) < min(known_honest)
        # Losses concentrate in the early (learning) rounds: the second half
        # of the run loses less than the first half.
        halves = len(result.rounds) // 2
        first_half_losses = sum(
            r.accounts.victim_losses for r in result.rounds[:halves]
        )
        second_half_losses = sum(
            r.accounts.victim_losses for r in result.rounds[halves:]
        )
        assert second_half_losses < first_half_losses

    def test_trust_estimates_approach_ground_truth(self):
        spec = PopulationSpec(
            size=12,
            honest_fraction=0.5,
            dishonest_fraction=0.5,
            probabilistic_fraction=0.0,
        )
        peers = build_population(spec, seed=7)
        config = CommunityConfig(rounds=60, seed=7)
        result = CommunitySimulation(peers, GoodsFirstStrategy(), config).run()
        observer = peers[0]
        estimates = observer.backend_for("beta").scores_snapshot()
        truth = {k: v for k, v in result.true_honesty.items() if k in estimates}
        error = mean_absolute_error(estimates, truth)
        assert error < 0.3

    def test_strategy_ordering_matches_paper_story(self):
        """Trust-aware sits between safe-only (no trade) and naive (no protection)."""
        def run(strategy, seed=17):
            scenario = build_registered_scenario(
                "ebay", size=16, rounds=25, dishonest_fraction=0.25,
                defection_penalty=1.0, seed=seed,
            )
            return scenario.simulation(strategy).run()

        safe = run(SafeOnlyStrategy())
        aware = run(TrustAwareStrategy())
        naive = run(GoodsFirstStrategy())
        # Trade volume: trust-aware completes more than safe-only.
        assert aware.accounts.completed > safe.accounts.completed
        # Protection: trust-aware loses less than the naive strategy.
        assert aware.honest_losses() < naive.honest_losses()
        # And the honest population is better off under the trust-aware rule.
        assert aware.honest_welfare() > naive.honest_welfare()
        assert aware.honest_welfare() > safe.honest_welfare()


class TestDistributedReputation:
    def test_pgrid_backed_complaint_decisions(self):
        network = PGridNetwork([f"storage-{i}" for i in range(16)], seed=5)
        network.build("balanced")
        store = DistributedReputationStore(network)
        model = ComplaintTrustModel(store=store, metric_mode="balanced",
                                    tolerance_factor=2.0)
        for index in range(6):
            model.file_complaint(f"victim-{index}", "cheater", timestamp=float(index))
        model.file_complaint("grumpy", "honest-peer")
        assert not model.is_trustworthy("cheater")
        assert model.is_trustworthy("honest-peer")
        # The same decisions are supported via per-replica witness reports.
        reports = store.complaint_reports_about("cheater")
        assessment = model.assess_from_reports("cheater", reports)
        assert assessment.counts.received == 6

    def test_peer_complaints_replicate_onto_distributed_store(self):
        network = PGridNetwork([f"s{i}" for i in range(8)], seed=9)
        network.build("balanced")
        shared = create_backend("complaint", metric_mode="balanced")
        alice = CommunityPeer("alice", complaint_store=shared)
        bob = CommunityPeer("bob", complaint_store=shared, trust_method="complaint")
        alice.observe_outcome(
            InteractionRecord(
                supplier_id="mallory",
                consumer_id="alice",
                completed=False,
                defector="supplier",
                value=5.0,
            )
        )
        # Bob has never met Mallory but the shared complaint store tells him.
        assert bob.trust_in("mallory") < 1.0
        # Filed into P-Grid, the same log supports the same trust value.
        store = DistributedReputationStore(network)
        for complaint in shared.all_complaints():
            store.file_complaint(complaint)
        assert network.total_stored_values() > 0
        model = ComplaintTrustModel(store=store, metric_mode="balanced")
        assert model.trust("mallory") == pytest.approx(bob.trust_in("mallory"))
