"""Edge-case audit of :class:`~repro.simulation.network.NetworkCounters`.

The run summary derives headline numbers (delivery ratio, effective
post-repair delivery, loss ratio, latency, convergence lags) from these
counters, so their behaviour at the awkward moments — zero traffic,
everything still in flight, queried in the middle of a ``drain()``,
entries expired by churn and then reconciled by a late arrival — must be
pinned: no NaN, no negative ledger, and the vacuous ``1.0``s only where
they are the documented idle-state answer.
"""

import random

from repro.reputation.records import InteractionRecord
from repro.simulation.community import CommunitySimulation
from repro.simulation.evidence import EvidencePlane
from repro.simulation.network import FixedLatency, NetworkCounters, SimulatedNetwork
from repro.simulation.peer import CommunityPeer, WitnessQuestions
from repro.workloads import build_registered_scenario


def _assert_finite_ledger(counters: NetworkCounters) -> None:
    """The invariants every observer of a live counters object relies on."""
    assert counters.in_flight >= 0
    assert counters.missing_entries >= 0
    assert 0.0 <= counters.delivery_ratio <= 1.0
    assert 0.0 <= counters.loss_ratio <= 1.0
    assert 0.0 <= counters.effective_delivery_ratio <= 1.0
    assert counters.mean_latency >= 0.0
    assert counters.convergence_lag_p50 <= counters.convergence_lag_p95
    # Every ratio is a plain float, never NaN (NaN != NaN).
    for value in (
        counters.delivery_ratio,
        counters.loss_ratio,
        counters.effective_delivery_ratio,
        counters.mean_latency,
        counters.convergence_lag_p50,
        counters.convergence_lag_p95,
    ):
        assert value == value


class TestZeroTraffic:
    def test_idle_counters_report_vacuous_success(self):
        counters = NetworkCounters()
        # Pinned contract: with nothing sent, the delivery ratios are the
        # vacuous 1.0 (nothing was lost) and the loss ratio is 0.0 — never
        # a 0/0 NaN.
        assert counters.delivery_ratio == 1.0
        assert counters.effective_delivery_ratio == 1.0
        assert counters.loss_ratio == 0.0
        assert counters.mean_latency == 0.0
        assert counters.in_flight == 0
        assert counters.missing_entries == 0
        assert counters.convergence_lag_p50 == 0.0
        assert counters.convergence_lag_p95 == 0.0
        _assert_finite_ledger(counters)

    def test_async_plane_with_no_traffic(self):
        plane = EvidencePlane(mode="async", latency=1.0)
        assert plane.counters is not None
        assert plane.effective_delivery_ratio == 1.0
        _assert_finite_ledger(plane.counters)

    def test_sync_plane_has_no_counters(self):
        assert EvidencePlane(mode="sync").counters is None


class TestInFlightAccounting:
    def test_in_flight_counts_against_delivery_ratio(self):
        network = SimulatedNetwork(latency=FixedLatency(5.0))
        network.register("a", lambda message: None)
        network.register("b", lambda message: None)
        network.send("a", "b", payload="x")
        counters = network.counters
        # Still in flight: evidence the recipient does not have yet must
        # *not* read as delivered — the ratio is 0.0 here, not 1.0.
        assert counters.in_flight == 1
        assert counters.delivery_ratio == 0.0
        assert counters.loss_ratio == 0.0
        _assert_finite_ledger(counters)
        network.deliver_until(10.0)
        assert counters.in_flight == 0
        assert counters.delivered == 1
        assert counters.delivery_ratio == 1.0
        assert counters.mean_latency == 5.0
        _assert_finite_ledger(counters)

    def test_dropped_and_undeliverable_traffic(self):
        network = SimulatedNetwork(
            fault=lambda sender, recipient, now: recipient == "b"
        )
        network.register("a", lambda message: None)
        network.register("b", lambda message: None)
        network.send("a", "b", payload="x")   # faulted link -> dropped
        network.send("a", "ghost", payload="x")  # unknown -> undeliverable
        counters = network.counters
        assert counters.dropped == 1
        assert counters.undeliverable == 1
        assert counters.delivery_ratio == 0.0
        assert counters.loss_ratio == 1.0
        assert counters.in_flight == 0
        _assert_finite_ledger(counters)


def _two_peer_plane(**plane_kwargs):
    plane = EvidencePlane(
        mode="async",
        latency=1.0,
        rng=random.Random(1),
        repair_rng=random.Random(2),
        **plane_kwargs,
    )
    origin = CommunityPeer("origin")
    target = CommunityPeer("target")
    plane.register_peer(origin)
    plane.register_peer(target)
    record = InteractionRecord(
        supplier_id="origin",
        consumer_id="target",
        completed=True,
        value=3.0,
        timestamp=0.0,
    )
    return plane, origin, target, record


class TestEntryLedger:
    def test_duplicate_delivery_suppressed_once(self):
        plane, _, _, record = _two_peer_plane(repair="gossip")
        plane.submit_records("target", [record], sender_id="origin")
        (key,) = plane.journals["origin"].keys()
        # A gossip relay reaches the target before the direct copy does:
        # the direct copy is then a duplicate.
        plane.ingest_entry("target", plane.journals["origin"].get(key), 0.0)
        for tick in range(1, 8):
            plane.advance(float(tick))
        counters = plane.counters
        assert counters.duplicates_suppressed >= 1
        assert counters.entries_emitted == 1
        assert counters.entries_applied == 1
        assert counters.missing_entries == 0
        _assert_finite_ledger(counters)

    def test_expired_entry_reconciled_by_late_arrival(self):
        plane, origin, target, record = _two_peer_plane(repair="gossip")
        plane.submit_records("target", [record], sender_id="origin")
        counters = plane.counters
        # The origin churns out while its only copy is still in flight: the
        # entry loses its repair driver and is written off...
        plane.unregister_peer("origin")
        assert counters.entries_expired == 1
        assert counters.missing_entries == 0
        _assert_finite_ledger(counters)
        # ...but the in-flight copy still lands, and the ledger reconciles
        # instead of double-counting (applied + expired never exceeds
        # emitted, missing never goes negative).
        plane.advance(50.0)
        assert counters.entries_applied == 1
        assert counters.entries_expired == 0
        assert counters.entries_applied + counters.entries_expired <= (
            counters.entries_emitted
        )
        assert counters.missing_entries == 0
        _assert_finite_ledger(counters)

    def test_transient_witness_traffic_never_enters_the_entry_ledger(self):
        plane, origin, target, record = _two_peer_plane()
        # Give the witness something to report, synchronously applied.
        target.observe_outcomes([record])
        by_id = {"origin": origin, "target": target}
        plane.request_witness_reports(
            WitnessQuestions.of_rows([("origin", "target", "origin")], by_id.get)
        )
        plane.advance(20.0)
        counters = plane.counters
        # Pinned: witness request/reply messages are plain messages — they
        # are counted as messages (delivery_ratio) but never as evidence
        # entries, so effective_delivery_ratio stays the vacuous 1.0 even
        # if every witness message were lost.  The run summary prints both
        # ratios for exactly this reason.
        assert counters.sent >= 2
        assert counters.entries_emitted == 0
        assert counters.effective_delivery_ratio == 1.0
        _assert_finite_ledger(counters)


class TestMidDrainQueries:
    def test_counters_stay_consistent_through_drain_ticks(self):
        scenario = build_registered_scenario(
            "p2p-file-trading",
            size=10,
            rounds=6,
            seed=4,
            evidence_mode="async",
            evidence_latency=1.5,
            evidence_loss=0.25,
            evidence_repair="gossip",
            gossip_period=1.0,
            gossip_fanout=2,
        )
        simulation = scenario.simulation()
        simulation.run()
        plane = simulation.evidence_plane
        counters = plane.counters
        _assert_finite_ledger(counters)
        before_drain = counters.effective_delivery_ratio
        # Drain one tick at a time, observing the counters mid-repair the
        # way a progress reporter would: the ledger must hold its
        # invariants at every intermediate step and the post-repair ratio
        # must never move backwards.
        previous = before_drain
        for _ in range(200):
            ticked = plane.drain(max_ticks=1)
            _assert_finite_ledger(counters)
            current = counters.effective_delivery_ratio
            assert current >= previous
            assert counters.entries_applied <= counters.entries_emitted
            previous = current
            if ticked == 0:
                break
        assert counters.effective_delivery_ratio >= before_drain
        assert counters.effective_delivery_ratio > 0.9
