"""Complexity guard and oracle of the round's evidence write (no timing).

A sync round hands its evidence to the stores as one block: every
observation of the round is one queued beta-table write, and the round's
complaints (the dishonest partners', then the false ones) are one write of
the shared complaint store.  No ``TrustObservation`` is built and no
per-peer ``observe_outcomes`` runs.  The guard counts those writes per
round of sync flash-crowd and sybil-coalition (4 witnesses) runs at N and
2N.

The oracle replays the same rounds one batch at a time: one write per
peer batch (peers by first appearance, a peer's records in outcome order)
into fresh peers sharing a fresh plain complaint store, then one write per
false complaint, drawn from the same ``complaints`` stream.  The batches
go either through each peer's ``observe_outcomes`` (a one-batch block) or,
independently of the block writer, as ``TrustObservation``s through the
backends' own ``update_many``, which derive the complaints themselves.
The simulation's plain store and every peer's beta cells must equal the
replay's.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.exchange import Role
from repro.simulation.evidence import EvidencePlane
from repro.simulation.peer import CommunityPeer
from repro.simulation.rng import RandomStreams
from repro.trust import CommunityBetaTable, TrustObservation, create_backend
from repro.workloads.registry import build_registered_scenario

SCENARIOS = [("flash-crowd", 0), ("sybil-coalition", 4)]


def _count_writes(monkeypatch, simulation, store):
    """Per round: observations built and the round's writes, by kind."""
    rounds = [Counter()]
    table = simulation.beta_table

    def counting(owner, name, kind, matches=lambda self: True):
        original = vars(owner)[name]

        def wrapper(self, *args, **kwargs):
            if matches(self):
                rounds[-1][kind] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(TrustObservation, "__post_init__", "observations")
    counting(CommunityPeer, "observe_outcomes", "observe_outcomes")
    for name in ("observe_columns", "update_many"):
        counting(CommunityBetaTable, name, "beta_writes", lambda self: self is table)
    for name in ("record_complaints", "update_many"):
        counting(type(store), name, "complaint_writes", lambda self: self is store)
    original_advance = EvidencePlane.advance

    def advance(self, now):
        rounds.append(Counter())
        return original_advance(self, now)

    monkeypatch.setattr(EvidencePlane, "advance", advance)
    return rounds


@pytest.mark.parametrize("scenario_name, witnesses", SCENARIOS)
@pytest.mark.parametrize("size", [24, 48])
def test_a_sync_round_writes_its_evidence_once(monkeypatch, size, scenario_name, witnesses):
    scenario = build_registered_scenario(scenario_name, size=size, rounds=4, seed=0)
    simulation = scenario.simulation()
    assert simulation.config.evidence_mode == "sync"
    assert simulation.config.witness_count == witnesses
    writes = _count_writes(monkeypatch, simulation, scenario.complaint_store)
    result = simulation.run()

    per_round = writes[1:-1]
    assert len(per_round) == 4
    for stats, counts in zip(result.rounds, per_round):
        assert stats.accounts.executed > 0
        assert counts["observations"] == 0
        assert counts["observe_outcomes"] == 0
        assert counts["beta_writes"] == 1
        assert counts["complaint_writes"] <= 1
    assert sum(counts["complaint_writes"] for counts in per_round) > 0


def _observations(peer_id, batch):
    """A peer's batch as the observations the trust backends take: about
    its partner in each record, weighted by the value at stake (at least
    1)."""
    observations = []
    for record in batch:
        role = Role.CONSUMER if record.supplier_id == peer_id else Role.SUPPLIER
        observations.append(
            TrustObservation(
                observer_id=peer_id,
                subject_id=record.participant(role),
                honest=record.honest(role),
                timestamp=record.timestamp,
                weight=max(1.0, record.value) if record.value > 0 else 1.0,
            )
        )
    return observations


def _replay(simulation, outcomes, seed, writer):
    """The run's rounds written one batch at a time, into fresh peers.

    ``writer`` "peers": one ``observe_outcomes`` per peer batch, then one
    ``file_complaint`` per false complaint.  "backends": the same batches
    as ``TrustObservation``s through the backends' own ``update_many``
    (each derives its complaints), then one complaint observation per
    false complaint.
    """
    store = create_backend("complaint", metric_mode="balanced")
    originals = list(simulation.peers) + list(simulation.departed_peers)
    fresh = {
        peer.peer_id: CommunityPeer(
            peer.peer_id, behavior=peer.behavior, complaint_store=store
        )
        for peer in originals
    }

    def observe(peer_id, batch):
        if writer == "peers":
            fresh[peer_id].observe_outcomes(batch)
        else:
            observations = _observations(peer_id, batch)
            fresh[peer_id]._beta_table().update_many(observations)
            store.update_many(observations)

    def file(filer, accused_id, timestamp):
        if writer == "peers":
            filer.file_complaint(accused_id, timestamp)
        else:
            store.update(
                TrustObservation(
                    filer.peer_id, accused_id, honest=True, timestamp=timestamp,
                    files_complaint=True,
                )
            )

    complaint_rng = RandomStreams(seed)("complaints")
    for round_index in range(simulation.config.rounds):
        records = [
            outcome.record
            for outcome in outcomes
            if outcome.timestamp == round_index and outcome.record is not None
        ]
        per_peer = {}
        for record in records:
            per_peer.setdefault(record.supplier_id, []).append(record)
            per_peer.setdefault(record.consumer_id, []).append(record)
        for peer_id, batch in per_peer.items():
            observe(peer_id, batch)
        for record in records:
            supplier, consumer = fresh[record.supplier_id], fresh[record.consumer_id]
            if record.consumer_honest:
                supplier.maybe_file_false_complaint(
                    consumer.peer_id, complaint_rng, float(round_index), via=file
                )
            if record.supplier_honest:
                consumer.maybe_file_false_complaint(
                    supplier.peer_id, complaint_rng, float(round_index), via=file
                )
    return store, fresh


def _assert_same_state(left, right):
    assert sorted(left) == sorted(right)
    for key in left:
        assert np.asarray(left[key]).tolist() == np.asarray(right[key]).tolist(), key


@pytest.mark.parametrize(
    "scenario_name, backend",
    [
        ("flash-crowd", None),
        ("sybil-coalition", None),
        ("collusive-witness", "complaint"),
        ("high-churn", "combined"),
    ],
)
@pytest.mark.parametrize("writer", ["peers", "backends"])
def test_the_round_block_ends_as_the_per_batch_writes(scenario_name, backend, writer):
    scenario = build_registered_scenario(
        scenario_name, size=30, rounds=5, seed=2, backend=backend, rebalance="off"
    )
    simulation = scenario.simulation()
    result = simulation.run(collect_outcomes=True)
    store, fresh = _replay(simulation, result.outcomes, 2, writer)

    assert len(store.all_complaints()) > 0
    _assert_same_state(scenario.complaint_store.snapshot(), store.snapshot())
    for peer in list(simulation.peers) + list(simulation.departed_peers):
        _assert_same_state(
            peer.backend_for("beta").snapshot(),
            fresh[peer.peer_id].backend_for("beta").snapshot(),
        )


def test_witness_positions_draw_as_the_names_did():
    names = [f"peer-{index:03d}" for index in range(57)]
    for size in (3, 6, 57):
        by_name, by_position = random.Random(7), random.Random(7)
        for _ in range(40):
            drawn = by_position.sample(range(len(names)), size)
            assert by_name.sample(names, size) == [names[index] for index in drawn]


def test_one_complaint_read_per_store_fills_every_consumer_row(monkeypatch):
    """Under COMPLAINT and COMBINED the round's score read, ``trust_rows``,
    reads the shared complaint store once for its whole score matrix, and
    every row equals the consumer's own ``trust_in_many``."""
    checked = Counter()
    for method in ("complaint", "combined"):
        scenario = build_registered_scenario(
            "collusive-witness", backend=method, size=24, rounds=4, seed=3
        )
        simulation = scenario.simulation()
        store = scenario.complaint_store
        phase = {"matching": False}
        import repro.simulation.community as community_module

        original_rows = community_module.trust_rows
        original_read = vars(type(store))["scores_for"]
        original_select = community_module.trust_weighted_matching

        def rows(*args, **kwargs):
            phase["matching"] = True
            try:
                return original_rows(*args, **kwargs)
            finally:
                phase["matching"] = False

        def read(self, *args, **kwargs):
            if phase["matching"] and self is store:
                checked[method, "reads"] += 1
            return original_read(self, *args, **kwargs)

        def select(consumer_ids, listings, scores, rng):
            suppliers = [listing.supplier_id for listing in listings]
            for consumer_id, row in zip(consumer_ids, scores):
                consumer = simulation.peer_by_id(consumer_id)
                expected = consumer.trust_in_many(suppliers)
                assert row.tobytes() == expected.tobytes()
                checked[method, "rows"] += 1
            return original_select(consumer_ids, listings, scores, rng)

        monkeypatch.setattr(community_module, "trust_rows", rows)
        monkeypatch.setattr(type(store), "scores_for", read)
        monkeypatch.setattr(community_module, "trust_weighted_matching", select)
        simulation.run()
        monkeypatch.undo()
        assert checked[method, "reads"] == simulation.config.rounds
        assert checked[method, "rows"] > 0
