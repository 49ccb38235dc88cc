"""Tests for the evidence plane: sync/async propagation of trust evidence.

Covers the plane in isolation (delivery, delay, loss, witness round trips,
churn) and end to end: an async community run with latency/loss produces
measurably staler trust state than the synchronous flush it replaces.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.marketplace.strategy import TrustAwareStrategy
from repro.reputation.records import InteractionRecord
from repro.simulation.behaviors import CoalitionWitness, TruthfulWitness
from repro.simulation.community import CommunityConfig, CommunitySimulation
from repro.simulation.evidence import EVIDENCE_MODES, EvidencePlane
from repro.simulation.network import (
    FixedLatency,
    NetworkCounters,
    SimulatedNetwork,
)
from repro.simulation.peer import CommunityPeer, WitnessQuestions
from repro.trust.beta import BetaBelief
from repro.workloads import build_registered_scenario


def _record(supplier="s", consumer="c", supplier_honest=True, consumer_honest=True):
    defector = None
    if not supplier_honest:
        defector = "supplier"
    elif not consumer_honest:
        defector = "consumer"
    return InteractionRecord(
        supplier_id=supplier,
        consumer_id=consumer,
        completed=defector is None,
        defector=defector,
        value=5.0,
        timestamp=0.0,
    )


def _observed(peer):
    """Outcomes the peer has recorded: one beta observation each."""
    beta = peer.backend_for("beta")
    return sum(beta.observation_count(subject) for subject in beta.known_subjects())



class TestSyncPlane:
    def test_records_applied_immediately(self):
        plane = EvidencePlane(mode="sync")
        peer = CommunityPeer("c")
        plane.register_peer(peer)
        plane.submit_records("c", [_record(supplier_honest=False)])
        assert _observed(peer) == 1
        assert plane.counters is None
        assert plane.pending_messages == 0

    def test_witness_round_trip_is_instant(self):
        plane = EvidencePlane(mode="sync")
        witness = CommunityPeer("w")
        requester = CommunityPeer("r")
        plane.register_peer(witness)
        plane.register_peer(requester)
        witness.observe_outcome(_record(supplier="target", consumer="w"))
        by_id = {"r": requester, "w": witness}
        plane.request_witness_reports(
            WitnessQuestions.of_rows([("r", "w", "target")], by_id.get)
        )
        reports = requester.witness_reports_about("target")
        assert "w" in reports

    def test_complaint_filed_directly(self):
        plane = EvidencePlane(mode="sync")
        peer = CommunityPeer("p")
        plane.register_peer(peer)
        plane.submit_complaint(peer, "villain", timestamp=1.0)
        assert peer.backend_for("complaint").counts("villain")[0] == 1


class TestAsyncPlane:
    def _plane(self, latency=1.0, loss=0.0):
        return EvidencePlane(
            mode="async",
            latency_model=FixedLatency(latency),
            loss=loss,
        )

    def test_evidence_arrives_only_after_advance(self):
        plane = self._plane(latency=2.0)
        peer = CommunityPeer("c")
        plane.register_peer(peer)
        plane.submit_records("c", [_record()])
        assert _observed(peer) == 0
        plane.advance(1.0)
        assert _observed(peer) == 0
        plane.advance(2.0)
        assert _observed(peer) == 1
        assert plane.counters.delivered == 1

    def test_lost_evidence_never_arrives(self):
        plane = EvidencePlane(mode="async", latency=0.5, loss=0.97)
        peer = CommunityPeer("c")
        plane.register_peer(peer)
        for _ in range(50):
            plane.submit_records("c", [_record()])
        plane.advance(100.0)
        counters = plane.counters
        assert counters.dropped > 0
        assert counters.delivered == _observed(peer)
        assert counters.delivered + counters.dropped == counters.sent

    def test_witness_round_trip_pays_two_legs(self):
        plane = self._plane(latency=1.0)
        witness = CommunityPeer("w")
        requester = CommunityPeer("r")
        plane.register_peer(witness)
        plane.register_peer(requester)
        witness.observe_outcome(_record(supplier="target", consumer="w"))
        by_id = {"r": requester, "w": witness}
        plane.request_witness_reports(
            WitnessQuestions.of_rows([("r", "w", "target")], by_id.get)
        )
        plane.advance(1.0)  # request delivered, reply goes out
        assert requester.witness_reports_about("target") == {}
        plane.advance(2.0)  # reply delivered
        assert "w" in requester.witness_reports_about("target")

    def test_departed_peer_mail_is_undeliverable(self):
        plane = self._plane(latency=1.0)
        peer = CommunityPeer("c")
        plane.register_peer(peer)
        plane.submit_records("c", [_record()])
        plane.unregister_peer("c")
        plane.advance(5.0)
        assert _observed(peer) == 0
        assert plane.counters.undeliverable == 1

    def test_complaints_route_through_the_sink(self):
        plane = self._plane(latency=1.0)
        peer = CommunityPeer("p")
        plane.register_peer(peer)
        plane.submit_complaint(peer, "villain", timestamp=0.0)
        assert peer.backend_for("complaint").counts("villain")[0] == 0
        plane.advance(1.0)
        assert peer.backend_for("complaint").counts("villain")[0] == 1

    def test_complaint_from_departed_filer_still_lands(self):
        # The complaint store is community-shared: a filing already in
        # flight reaches it even when the filer churns out before delivery.
        plane = self._plane(latency=2.0)
        store = CommunityPeer("store-holder").backend_for("complaint")
        filer = CommunityPeer("f", complaint_store=store)
        plane.register_peer(filer)
        plane.submit_complaint(filer, "villain", timestamp=0.0)
        plane.unregister_peer("f")
        plane.advance(5.0)
        assert [c.accused_id for c in store.all_complaints()] == ["villain"]

    @pytest.mark.parametrize(
        "latency, ticks", [(0.5, 1), (1.0, 1), (2.5, 3), (4.0, 4)]
    )
    def test_drain_advances_the_clock_one_unit_per_tick(self, latency, ticks):
        plane = self._plane(latency=latency)
        peer = CommunityPeer("c")
        plane.register_peer(peer)
        plane.submit_records("c", [_record()])
        assert plane.drain() == ticks
        assert plane._network.now == float(ticks)
        assert _observed(peer) == 1
        assert plane.pending_messages == 0
        assert plane.drain() == 0  # an idle wire needs no tick

    @pytest.mark.parametrize("max_ticks", [0, 1, 3])
    def test_drain_stops_after_max_ticks(self, max_ticks):
        plane = self._plane(latency=5.0)
        peer = CommunityPeer("c")
        plane.register_peer(peer)
        plane.submit_records("c", [_record()])
        assert plane.drain(max_ticks=max_ticks) == max_ticks
        assert plane._network.now == float(max_ticks)
        assert plane.pending_messages == 1
        assert _observed(peer) == 0

    def test_drain_has_no_tick_setting(self):
        plane = self._plane(latency=3.0)
        plane.register_peer(CommunityPeer("c"))
        plane.submit_records("c", [_record()])
        with pytest.raises(TypeError):
            plane.drain(max_ticks=1, tick=0.5)
        assert plane.pending_messages == 1
        assert plane._network.now == 0.0

    def test_advance_rejects_a_nan_horizon(self):
        plane = self._plane(latency=3.0)
        plane.register_peer(CommunityPeer("c"))
        plane.submit_records("c", [_record()])
        with pytest.raises(SimulationError):
            plane.advance(math.nan)
        assert plane.pending_messages == 1

    @pytest.mark.parametrize("repair", ["off", "gossip"])
    def test_pending_messages_equal_in_flight(self, repair):
        scenario = build_registered_scenario(
            "sybil-coalition", size=30, rounds=4, seed=0,
            evidence_mode="async", evidence_latency=3.0, evidence_loss=0.2,
            evidence_repair=repair,
        )
        simulation = scenario.simulation()
        simulation.run()
        plane = simulation.evidence_plane
        counters = plane.counters
        assert plane.pending_messages == counters.in_flight > 0
        while plane.drain(max_ticks=1):
            assert plane.pending_messages == counters.in_flight
        assert plane.pending_messages == counters.in_flight
        if repair == "off":
            # Without repair the drain stops exactly when the wire is idle.
            assert counters.in_flight == 0
        else:
            assert counters.repair_messages > 0

    def test_invalid_configurations_rejected(self):
        with pytest.raises(SimulationError):
            EvidencePlane(mode="carrier-pigeon")
        with pytest.raises(SimulationError):
            EvidencePlane(mode="async", loss=1.0)
        with pytest.raises(SimulationError):
            EvidencePlane(mode="async", latency=-1.0)
        for latency in (math.inf, math.nan):
            with pytest.raises(SimulationError):
                EvidencePlane(mode="async", latency=latency)
        assert EVIDENCE_MODES == ("sync", "async")


class TestNetworkCounters:
    def test_dropped_counted_separately_from_delivered(self):
        network = SimulatedNetwork(
            latency=FixedLatency(1.0), loss_probability=0.5
        )
        received = []
        network.register("b", received.append)
        for _ in range(200):
            network.send("a", "b", "payload")
        network.deliver_until(2.0)
        counters = network.counters
        assert counters.sent == 200
        assert counters.dropped > 0
        assert counters.delivered == len(received)
        assert counters.delivered + counters.dropped == 200
        assert counters.in_flight == 0
        assert counters.delivery_ratio == pytest.approx(counters.delivered / 200)
        assert counters.loss_ratio == pytest.approx(counters.dropped / 200)

    def test_in_flight_and_idle_ratios(self):
        counters = NetworkCounters()
        assert counters.delivery_ratio == 1.0
        assert counters.loss_ratio == 0.0
        network = SimulatedNetwork(latency=FixedLatency(10.0))
        network.register("b", lambda message: None)
        network.send("a", "b", "payload")
        assert network.counters.in_flight == 1
        assert network.counters.delivery_ratio == 0.0


class TestWitnessPolicies:
    def test_truthful_witness_forwards_belief(self):
        belief = BetaBelief(4.0, 2.0)
        assert TruthfulWitness().report("x", belief) is belief

    def test_coalition_vouches_and_bad_mouths(self):
        policy = CoalitionWitness(members=frozenset({"sybil-1"}), vouch_strength=10.0)
        vouch = policy.report("sybil-1", BetaBelief(1.0, 9.0))
        assert vouch.mean > 0.9
        smear = policy.report("honest-1", BetaBelief(9.0, 1.0))
        assert smear.mean < 0.2

    def test_forged_reports_sent_even_without_evidence(self):
        sybil = CommunityPeer(
            "sybil-0",
            witness_policy=CoalitionWitness(members=frozenset({"sybil-1"})),
        )
        reports = sybil.build_witness_reports(("sybil-1", "sybil-0"))
        assert [report[0] for report in reports] == ["sybil-1"]
        honest = CommunityPeer("honest-0")
        assert honest.build_witness_reports(("sybil-1",)) == []


class TestCommunityIntegration:
    def _run(self, mode, latency=0.0, loss=0.0, seed=7):
        scenario = build_registered_scenario("p2p-file-trading", size=16, rounds=20, seed=seed)
        config = dataclasses.replace(
            scenario.config,
            evidence_mode=mode,
            evidence_latency=latency,
            evidence_loss=loss,
        )
        simulation = CommunitySimulation(
            scenario.peers, TrustAwareStrategy(), config
        )
        result = simulation.run()
        errors = [
            abs(observer.backend_for("beta").score(subject.peer_id) - subject.true_honesty)
            for observer in scenario.peers
            for subject in scenario.peers
            if observer is not subject
        ]
        recorded = sum(
            _observed(peer) for peer in scenario.peers
        )
        return result, float(np.mean(errors)), recorded

    def test_async_latency_and_loss_produce_staler_trust(self):
        sync_result, sync_error, sync_recorded = self._run("sync")
        async_result, async_error, async_recorded = self._run(
            "async", latency=4.0, loss=0.4
        )
        # Evidence went missing or arrived late...
        assert async_recorded < sync_recorded
        assert 0.0 < async_result.evidence_delivery_ratio < 1.0
        counters = async_result.evidence_counters
        assert counters.dropped > 0
        assert (
            counters.delivered
            + counters.dropped
            + counters.undeliverable
            + counters.in_flight
            == counters.sent
        )
        # ...so trust estimates track ground truth measurably worse.
        assert async_error > sync_error + 0.02
        assert sync_result.evidence_counters is None

    def test_zero_latency_async_approximates_sync_learning(self):
        _, sync_error, sync_recorded = self._run("sync")
        _, async_error, async_recorded = self._run("async", latency=1e-6, loss=0.0)
        assert async_recorded == sync_recorded
        assert async_error == pytest.approx(sync_error, abs=0.05)

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            CommunityConfig(evidence_mode="quantum")
        with pytest.raises(SimulationError):
            CommunityConfig(evidence_mode="async", evidence_loss=1.5)
        with pytest.raises(SimulationError):
            CommunityConfig(evidence_mode="async", evidence_latency=-1.0)
        with pytest.raises(SimulationError):
            CommunityConfig(witness_count=-1)

    def test_sync_mode_rejects_latency_and_loss_knobs(self):
        # Latency/loss flags on a sync run would be silently ignored — a
        # classic misconfigured experiment — so the config refuses them.
        with pytest.raises(SimulationError):
            CommunityConfig(evidence_latency=2.0)
        with pytest.raises(SimulationError):
            CommunityConfig(evidence_loss=0.2)


class TestSybilCoalitionScenario:
    def test_scenario_builds_with_coalition_policies(self):
        scenario = build_registered_scenario("sybil-coalition", size=16, rounds=5, seed=1)
        coalition = [
            peer
            for peer in scenario.peers
            if isinstance(peer.witness_policy, CoalitionWitness)
        ]
        assert coalition
        assert scenario.config.witness_count > 0
        members = coalition[0].witness_policy.members
        assert {peer.peer_id for peer in coalition} == set(members)

    def test_scenario_runs_and_witness_reports_flow(self):
        scenario = build_registered_scenario("sybil-coalition", size=14, rounds=8, seed=2)
        simulation = scenario.simulation(TrustAwareStrategy())
        result = simulation.run()
        assert result.accounts.attempted > 0
        inboxes = sum(
            len(peer.witness_reports_about(other.peer_id))
            for peer in scenario.peers
            for other in scenario.peers
        )
        assert inboxes > 0

    def test_discounting_limits_coalition_vouching(self):
        # An honest peer that distrusts the sybils gives their forged vouches
        # almost no weight, so a vouched-for sybil still scores low.
        honest = CommunityPeer("honest")
        for _ in range(5):
            honest.observe_outcome(
                _record(supplier="sybil-1", consumer="honest", supplier_honest=False)
            )
            honest.observe_outcome(
                _record(supplier="sybil-2", consumer="honest", supplier_honest=False)
            )
        honest.receive_witness_reports("sybil-2", [("sybil-1", 50.0, 1.0)])
        augmented = honest.trust_in_with_witnesses("sybil-1")
        direct = honest.trust_in("sybil-1")
        assert augmented < 0.3
        assert augmented == pytest.approx(direct, abs=0.15)
