"""Unit tests for community peers and churn."""

import random

import pytest

from repro.exceptions import SimulationError
from repro.reputation.records import InteractionRecord
from repro.simulation.behaviors import HonestBehavior, RationalDefectorBehavior
from repro.simulation.churn import ChurnModel
from repro.simulation.peer import CommunityPeer
from repro.trust import create_backend


class TestCommunityPeer:
    def test_defaults(self):
        peer = CommunityPeer("alice")
        assert isinstance(peer.behavior, HonestBehavior)
        assert peer.true_honesty == 1.0
        assert peer.supplies_goods and peer.consumes_goods

    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            CommunityPeer("")
        with pytest.raises(SimulationError):
            CommunityPeer("alice", defection_penalty=-1.0)

    def test_trust_updates_from_outcomes(self):
        peer = CommunityPeer("alice")
        baseline = peer.trust_in("bob")
        peer.observe_outcome(
            InteractionRecord(
                supplier_id="bob", consumer_id="alice", completed=True, value=5.0
            )
        )
        assert peer.trust_in("bob") > baseline

    def test_false_complaints_only_for_malicious(self):
        rng = random.Random(0)
        honest = CommunityPeer("honest")
        assert not honest.maybe_file_false_complaint("victim", rng)
        malicious = CommunityPeer(
            "mallory",
            behavior=RationalDefectorBehavior(false_complaint_probability=1.0),
        )
        assert malicious.maybe_file_false_complaint("victim", rng)
        complaints = malicious.backend_for("complaint").all_complaints()
        assert [c.complainant_id for c in complaints] == ["mallory"]

    def test_false_complaint_never_about_self(self):
        rng = random.Random(0)
        malicious = CommunityPeer(
            "mallory",
            behavior=RationalDefectorBehavior(false_complaint_probability=1.0),
        )
        assert not malicious.maybe_file_false_complaint("mallory", rng)

    def test_shared_complaint_store(self):
        shared = create_backend("complaint", metric_mode="balanced")
        alice = CommunityPeer("alice", complaint_store=shared)
        bob = CommunityPeer("bob", complaint_store=shared)
        alice.observe_outcome(
            InteractionRecord(
                supplier_id="bob",
                consumer_id="alice",
                completed=False,
                defector="supplier",
            )
        )
        # Bob reads the same backend, so a third peer would see it too.
        assert [c.accused_id for c in shared.all_complaints()] == ["bob"]
        assert bob.backend_for("complaint").counts("bob")[0] == 1


class TestChurnModel:
    def make_peers(self, n):
        return [CommunityPeer(f"p{i}") for i in range(n)]

    def test_inactive_by_default(self):
        churn = ChurnModel()
        assert not churn.is_active

    def test_departures(self):
        churn = ChurnModel(departure_probability=1.0, min_population=3)
        peers = self.make_peers(10)
        event = churn.apply(peers, 0, random.Random(0), lambda i: CommunityPeer(f"n{i}"))
        assert len(peers) == 3
        assert len(event.departed) == 7

    def test_arrivals(self):
        churn = ChurnModel(arrival_rate=2.0)
        peers = self.make_peers(4)
        event = churn.apply(peers, 1, random.Random(0), lambda i: CommunityPeer(f"n{i}"))
        assert len(event.arrived) == 2
        assert len(peers) == 6

    def test_fractional_arrival_rate_accumulates(self):
        churn = ChurnModel(arrival_rate=0.5)
        peers = self.make_peers(4)
        arrivals = 0
        for round_index in range(8):
            event = churn.apply(
                peers, round_index, random.Random(round_index),
                lambda i: CommunityPeer(f"n{i}"),
            )
            arrivals += len(event.arrived)
        assert arrivals == 4

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            ChurnModel(departure_probability=1.5)
        with pytest.raises(SimulationError):
            ChurnModel(arrival_rate=-1.0)
