"""Tests for the anti-entropy evidence repair subsystem.

Covers the building blocks (entry catalog, journals, digests), gossip
repair against a lossy network (it heals through relays), idempotent
delivery under forced duplicates, churn hardening of the accounting, the
convergence property (a drained repaired async run ends in the same
backend state as a sync run), and the two new scenarios (partition-heal,
fluctuating-behaviour).
"""

import dataclasses
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.baselines import GoodsFirstStrategy
from repro.marketplace.strategy import TrustAwareStrategy
from repro.reputation.records import InteractionRecord
from repro.simulation.behaviors import FluctuatingBehavior
from repro.simulation.community import CommunityConfig, CommunitySimulation
from repro.simulation.evidence import EvidencePlane
from repro.simulation.network import FixedLatency, SimulatedNetwork
from repro.simulation.peer import CommunityPeer, TrustMethod, WitnessQuestions
from repro.simulation.repair import (
    REPAIR_POLICIES,
    EntryCatalog,
    EvidenceEntry,
    EvidenceJournal,
    GossipPolicy,
)
from repro.workloads import build_registered_scenario


def _record(supplier="s", consumer="c", supplier_honest=True, consumer_honest=True,
            timestamp=0.0):
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
        timestamp=timestamp,
    )


def _observed(peer):
    """Outcomes the peer has recorded: one beta observation each."""
    beta = peer.backend_for("beta")
    return sum(beta.observation_count(subject) for subject in beta.known_subjects())



def _entry(origin, seq, recipient="r", kind="evidence", payload=(), emitted_at=0.0):
    return EvidenceEntry(
        origin_id=origin,
        seq=seq,
        recipient_id=recipient,
        kind=kind,
        payload=payload,
        emitted_at=emitted_at,
    )


def _journals(count):
    """An entry catalog and ``count`` empty journals over it."""
    catalog = EntryCatalog()
    return (catalog, *(EvidenceJournal(catalog) for _ in range(count)))


def _keys(catalog, ids):
    return [catalog.entry(gid).key for gid in ids]


def _claimed(catalog, digest):
    """The ``(origin, seq)`` keys a digest claims, in sorted order."""
    return sorted(_keys(catalog, np.flatnonzero(digest)))


class TestEvidenceJournal:
    def test_add_and_dedup(self):
        _, journal = _journals(1)
        entry = _entry("a", 1)
        assert journal.add(entry)
        assert not journal.add(entry)
        assert not journal.add(_entry("a", 1))  # same key, another object
        assert entry.key in journal
        assert journal.get(entry.key) is entry
        assert len(journal) == 1
        with pytest.raises(KeyError):
            journal.get(("a", 2))

    def test_missing_from_and_is_missing_any(self):
        catalog, ours, theirs = _journals(2)
        for seq in (1, 2, 3):
            ours.add(_entry("a", seq))
        theirs.add(_entry("a", 2))
        theirs.add(_entry("b", 1))
        push = ours.entries_missing_from(theirs.digest())
        assert _keys(catalog, push) == [("a", 1), ("a", 3)]
        assert ours.is_missing_any(theirs.digest())  # lacks ("b", 1)
        assert theirs.is_missing_any(ours.digest())

    def test_out_of_order_adds_hold_the_same_set(self):
        _, in_order, out_of_order = _journals(2)
        for seq in (1, 2, 3):
            in_order.add(_entry("a", seq))
        for seq in (1, 3, 2):
            out_of_order.add(_entry("a", seq))
        assert out_of_order.keys() == (("a", 1), ("a", 2), ("a", 3))
        assert np.array_equal(out_of_order.digest(), in_order.digest())

    def test_holes_are_what_a_full_partner_pushes(self):
        catalog, full, holey = _journals(2)
        for seq in range(1, 7):
            full.add(_entry("a", seq))
        for seq in (1, 4, 6):
            holey.add(_entry("a", seq))
        push = full.entries_missing_from(holey.digest())
        assert _keys(catalog, push) == [("a", 2), ("a", 3), ("a", 5)]
        assert not holey.entries_missing_from(full.digest()).size

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=40), max_size=40))
    def test_insertion_order_invariance(self, seqs):
        catalog, journal = _journals(1)
        for seq in seqs:
            journal.add(_entry("a", seq))
        expected = sorted(set(seqs))
        assert journal.keys() == tuple(("a", seq) for seq in expected)
        assert len(journal) == len(expected)
        assert _claimed(catalog, journal.digest()) == list(journal.keys())
        for seq in range(1, 45):
            assert (("a", seq) in journal) == (seq in expected)

    def test_digest_is_cached_until_the_next_add(self):
        catalog, journal = _journals(1)
        journal.add(_entry("a", 2))
        digest = journal.digest()
        assert journal.digest() is digest
        assert not journal.add(_entry("a", 2))
        assert journal.digest() is digest
        journal.add(_entry("a", 1))
        assert _claimed(catalog, journal.digest()) == [("a", 1), ("a", 2)]
        assert _claimed(catalog, digest) == [("a", 2)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(
            st.tuples(st.sampled_from("abc"), st.integers(1, 12)), max_size=24
        ),
        st.sets(
            st.tuples(st.sampled_from("abc"), st.integers(1, 12)), max_size=24
        ),
    )
    def test_one_push_pull_round_trip_converges(self, keys_a, keys_b):
        """Exchanging the two missing-sets makes both journals identical."""
        _, journal_a, journal_b = _journals(2)
        for origin, seq in keys_a:
            journal_a.add(_entry(origin, seq))
        for origin, seq in keys_b:
            journal_b.add(_entry(origin, seq))
        journal_b.add_ids(journal_a.entries_missing_from(journal_b.digest()))
        journal_a.add_ids(journal_b.entries_missing_from(journal_a.digest()))
        assert np.array_equal(journal_a.digest(), journal_b.digest())
        assert journal_a.keys() == journal_b.keys() == tuple(sorted(keys_a | keys_b))
        assert not journal_a.is_missing_any(journal_b.digest())
        assert not journal_b.is_missing_any(journal_a.digest())


def _named_entries(emissions):
    """Journaled entries a gossip plane names for ``(origin, witness)`` emissions.

    Witness emissions are witness requests: plain messages from the same
    origins, interleaved with the journaled evidence.
    """
    plane = EvidencePlane(
        mode="async", latency_model=FixedLatency(1.0), repair="gossip"
    )
    origins = ("a", "b", "c", "d")
    peers = {origin: CommunityPeer(origin) for origin in origins}
    for peer in peers.values():
        plane.register_peer(peer)
    for index, witness in emissions:
        origin, other = origins[index], origins[(index + 1) % len(origins)]
        if witness:
            plane.request_witness_reports(
                WitnessQuestions.of_rows([(origin, other, "x")], peers.get)
            )
        else:
            plane.submit_records(other, [_record()], sender_id=origin)
    entries = []
    for origin, journal in plane.journals.items():
        keys = journal.keys()
        # The journaled sequence space stays dense: 1..n, no holes.
        assert keys == tuple((origin, seq) for seq in range(1, len(keys) + 1))
        entries.extend(journal.get(key) for key in keys)
    return entries


def _brute_missing(keys, claimed):
    return sorted(set(keys) - set(claimed))


def _brute_missing_any(keys, claimed):
    return bool(set(claimed) - set(keys))


class TestDigestScanOracle:
    """The row scans against brute-force set differences of keys."""

    @settings(max_examples=80, deadline=None)
    @given(
        emissions=st.lists(
            st.tuples(st.integers(0, 3), st.booleans()), max_size=30
        ),
        data=st.data(),
    )
    def test_missing_scans_match_brute_force(self, emissions, data):
        entries = _named_entries(emissions)
        count = len(entries)
        flags = st.lists(st.booleans(), min_size=count, max_size=count)
        order = data.draw(st.permutations(entries))
        in_ours, in_theirs = data.draw(flags), data.draw(flags)
        # A fresh catalog interns in the drawn order, so ids follow neither
        # origin nor seq order: the scans must sort by key themselves.
        catalog, ours, theirs = _journals(2)
        for entry, flag in zip(order, in_ours):
            if flag:
                ours.add(entry)
        theirs_entries = [
            entry for entry, flag in zip(order, in_theirs) if flag
        ]
        stale_at = data.draw(st.integers(0, len(theirs_entries)))
        for entry in theirs_entries[:stale_at]:
            theirs.add(entry)
        stale = theirs.digest()
        for entry in theirs_entries[stale_at:]:
            theirs.add(entry)
        for mine, other in ((ours, theirs), (theirs, ours)):
            for digest in (stale, other.digest()):
                keys, claimed = mine.keys(), _claimed(catalog, digest)
                push = mine.entries_missing_from(digest)
                assert _keys(catalog, push) == _brute_missing(keys, claimed)
                assert mine.is_missing_any(digest) == _brute_missing_any(
                    keys, claimed
                )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from("abc"), st.integers(1, 10)),
                max_size=8,
            ),
            max_size=6,
        )
    )
    def test_handed_out_digest_never_changes(self, batches):
        catalog, journal = _journals(1)
        handed = []
        for batch in batches:
            digest = journal.digest()
            handed.append((digest, digest.copy()))
            with pytest.raises(ValueError):
                digest[...] = True  # read-only for every holder
            for origin, seq in batch:
                journal.add(_entry(origin, seq))
            journal.add(_entry("a", 1))
        for digest, copy in handed:
            assert np.array_equal(digest, copy)
        assert _claimed(catalog, journal.digest()) == list(journal.keys())

    def test_witness_messages_never_enter_the_catalog(self):
        plane = EvidencePlane(
            mode="async", latency_model=FixedLatency(1.0), repair="gossip"
        )
        requester, witness = CommunityPeer("a"), CommunityPeer("b")
        for peer in (requester, witness, CommunityPeer("c")):
            plane.register_peer(peer)
        by_id = {"a": requester, "b": witness}
        witness.observe_outcome(_record(supplier="x", consumer="b"))
        plane.submit_records("c", [_record()], sender_id="a")
        plane.request_witness_reports(WitnessQuestions.of_rows([("a", "b", "x")], by_id.get))
        for tick in (1.0, 2.0, 3.0):
            plane.advance(tick)
        counters = plane.counters
        # The request and the reply both crossed the wire...
        assert "b" in requester.witness_reports_about("x")
        assert counters.sent - counters.repair_messages == 3
        # ...but only the evidence batch is an entry: catalogued, journaled
        # and counted as emitted.
        catalog = plane._catalog
        assert len(catalog) == counters.entries_emitted == 1
        assert catalog.entry(0).key == ("a", 1)
        assert catalog.entry(0).kind == "evidence"
        for journal in plane.journals.values():
            assert set(journal.keys()) <= {("a", 1)}


class TestDigestCompactness:
    """A converged gossip run's journals all hold a dense prefix per origin."""

    ROUNDS = 4

    @pytest.mark.parametrize("seed", [0, 1])
    def test_settled_journals_hold_dense_prefixes(self, seed):
        scenario = build_registered_scenario(
            "sybil-coalition", backend="beta", size=40, rounds=self.ROUNDS,
            seed=seed, evidence_mode="async", evidence_latency=1.0,
            evidence_loss=0.2, evidence_repair="gossip", witness_count=3,
        )
        simulation = scenario.simulation()
        simulation.run()
        plane = simulation.evidence_plane
        clock = self.ROUNDS + plane.drain()
        journals = plane.journals

        def seqs_by_origin(journal):
            seqs = {}
            for origin, seq in journal.keys():
                seqs.setdefault(origin, []).append(seq)
            return seqs

        # Witness traffic interleaves with every origin's evidence, yet an
        # origin's own journal has no holes.
        emitted = {}
        for origin, journal in journals.items():
            own = seqs_by_origin(journal).get(origin, [])
            assert own and own == list(range(1, len(own) + 1))
            emitted[origin] = len(own)
        # Once anti-entropy has carried every entry everywhere, every
        # journal holds seqs 1..n of every origin, n its emitted count.
        for _ in range(40):
            digests = [journal.digest() for journal in journals.values()]
            if all(np.array_equal(digest, digests[0]) for digest in digests):
                break
            clock += 1
            plane.advance(float(clock))
        else:
            pytest.fail("journals did not converge")
        for journal in journals.values():
            assert seqs_by_origin(journal) == {
                origin: list(range(1, count + 1))
                for origin, count in emitted.items()
            }


class TestMessageIdentityPins:
    """Final traffic of witness-heavy async runs, message for message.

    Journal, digest and ingest internals may change how fast repair runs,
    never what it sends: the gossip exchanges and what counts as a
    duplicate are all pinned here.  ``flash-crowd`` churns
    peers out mid-run, so its pin also covers the write-off of entries whose
    last journal copy left; ``partition-heal`` cuts every cross-clique link
    until it heals, so its gossip backfills through the first cross-clique
    exchanges.
    """

    PINS = {
        ("sybil-coalition", "gossip"): dict(
            sent=1261, dropped=228, repair_messages=562,
            duplicates_suppressed=3707, entries_emitted=168,
            entries_applied=168, entries_expired=0,
        ),
        ("flash-crowd", "gossip"): dict(
            sent=3168, dropped=615, repair_messages=1943,
            duplicates_suppressed=26164, entries_emitted=311,
            entries_applied=304, entries_expired=7,
        ),
        ("partition-heal", "gossip"): dict(
            sent=1463, dropped=424, repair_messages=784,
            duplicates_suppressed=6451, entries_emitted=168,
            entries_applied=168, entries_expired=0,
        ),
    }

    @pytest.mark.parametrize("name,repair", sorted(PINS))
    def test_final_counters_are_pinned(self, name, repair):
        scenario = build_registered_scenario(
            name, size=20, rounds=4, seed=7,
            evidence_mode="async", evidence_latency=1.0, evidence_loss=0.2,
            evidence_repair=repair, witness_count=3,
        )
        simulation = scenario.simulation()
        result = simulation.run()
        simulation.evidence_plane.drain()
        counters = result.evidence_counters
        pin = self.PINS[name, repair]
        assert {name: getattr(counters, name) for name in pin} == pin
        # Every emitted entry ends applied or written off.
        assert counters.missing_entries == 0
        assert counters.effective_delivery_ratio == (
            pin["entries_applied"] / pin["entries_emitted"]
        )


class TestDeliveryOrderPins:
    """The order and timing of every delivery in the message-identity runs.

    Counter pins cannot see a reordering that leaves the counts equal, so
    each configuration of :class:`TestMessageIdentityPins` also pins a
    digest of the delivered sequence (deliver time, sender, recipient,
    kind), the summed latency and the convergence-lag quantiles.  Times
    are compared bit for bit (``repr`` of the floats).
    """

    PINS = {
        ("sybil-coalition", "gossip"): dict(
            delivered=941, digest="af876fd148d4393e",
            total_latency=848.8663021279738,
            lag_p50=0.8998334830127903, lag_p95=4.1675300124685135,
        ),
        ("flash-crowd", "gossip"): dict(
            delivered=2330, digest="d8418922b08c677a",
            total_latency=2084.936666013218,
            lag_p50=0.980037818598019, lag_p95=5.1440054040947425,
        ),
        ("partition-heal", "gossip"): dict(
            delivered=973, digest="a5ea1515494bef4d",
            total_latency=900.8447577139191,
            lag_p50=1.5026738306026122, lag_p95=6.3111611486372645,
        ),
    }

    @pytest.mark.parametrize("name,repair", sorted(PINS))
    def test_delivery_sequence_is_pinned(self, monkeypatch, name, repair):
        deliveries = []
        handle = EvidencePlane._handle_message

        def recording(plane, message):
            deliveries.append((
                plane._network.now, message.sender_id,
                message.recipient_id, message.kind,
            ))
            handle(plane, message)

        monkeypatch.setattr(EvidencePlane, "_handle_message", recording)
        scenario = build_registered_scenario(
            name, size=20, rounds=4, seed=7,
            evidence_mode="async", evidence_latency=1.0, evidence_loss=0.2,
            evidence_repair=repair, witness_count=3,
        )
        simulation = scenario.simulation()
        result = simulation.run()
        simulation.evidence_plane.drain()
        counters = result.evidence_counters
        digest = hashlib.sha256(repr(deliveries).encode()).hexdigest()[:16]
        assert dict(
            delivered=len(deliveries), digest=digest,
            total_latency=counters.total_latency,
            lag_p50=counters.convergence_lag_p50,
            lag_p95=counters.convergence_lag_p95,
        ) == self.PINS[name, repair]
        assert counters.delivered == len(deliveries)


class TestOneSequenceSpace:
    """Every origin names its entries 1..n, and witness traffic is no entry.

    Under both repair settings, over witness-heavy lossy runs (one with
    churn), every entry on the wire carries a positive sequence number,
    each origin's numbers are exactly 1..n with n its emitted count, and
    every emitted key ends in exactly one of applied, written off or still
    unapplied.
    """

    ENTRY_KINDS = {"evidence", "complaint"}
    WITNESS_KINDS = {"witness-request", "witness-reply"}
    REPAIR_KINDS = {"repair-digest", "repair-entries"}

    @pytest.mark.parametrize("repair", REPAIR_POLICIES)
    @pytest.mark.parametrize(
        "name", ["sybil-coalition", "flash-crowd", "high-churn"]
    )
    def test_entries_are_numbered_densely_per_origin(
        self, monkeypatch, name, repair
    ):
        sent = []
        send = SimulatedNetwork.send

        def recording(network, sender_id, recipient_id, payload, kind="generic"):
            sent.append((kind, payload))
            return send(network, sender_id, recipient_id, payload, kind=kind)

        monkeypatch.setattr(SimulatedNetwork, "send", recording)
        scenario = build_registered_scenario(
            name, size=16, rounds=4, seed=5,
            evidence_mode="async", evidence_latency=1.0, evidence_loss=0.2,
            evidence_repair=repair, witness_count=3,
        )
        simulation = scenario.simulation()
        result = simulation.run()
        plane = simulation.evidence_plane
        plane.drain()
        kinds = {kind for kind, _ in sent}
        allowed = self.ENTRY_KINDS | self.WITNESS_KINDS
        if repair == "gossip":
            allowed |= self.REPAIR_KINDS
        assert self.WITNESS_KINDS <= kinds <= allowed
        keys = set()
        for kind, payload in sent:
            if kind in self.ENTRY_KINDS:
                assert isinstance(payload, EvidenceEntry)
                keys.add(payload.key)
            else:
                assert not isinstance(payload, EvidenceEntry)
        seqs = {}
        for origin, seq in keys:
            seqs.setdefault(origin, set()).add(seq)
        assert {
            origin: set(range(1, count + 1))
            for origin, count in plane._seq.items()
        } == seqs
        counters = result.evidence_counters
        assert counters.entries_emitted == len(keys) > 0
        # The ledger partitions the emitted keys.
        unapplied = set().union(*plane._unapplied.values())
        applied, expired = plane._applied, plane._expired
        assert applied | expired | unapplied == keys
        assert not (applied & expired or applied & unapplied
                    or expired & unapplied)
        assert counters.entries_applied == len(applied)
        assert counters.entries_expired == len(expired)
        assert counters.missing_entries == len(unapplied)
        if repair == "gossip":
            assert not unapplied


class TestProfilerWrapPoints:
    """The methods ``perfbench/layers.py`` wraps stay defined on their class.

    The profiler reads each one as ``vars(owner)[attr]``, so an inherited or
    deleted method would break its layer report even with no program
    caller (``ingest_entry`` has none).
    """

    @pytest.mark.parametrize("owner, attr", [
        (EvidencePlane, "submit_records"),
        (EvidencePlane, "submit_complaint"),
        (EvidencePlane, "request_witness_reports"),
        (EvidencePlane, "advance"),
        (EvidencePlane, "ingest_entry"),
        (EvidenceJournal, "digest"),
        (EvidenceJournal, "entries_missing_from"),
    ])
    def test_wrap_point_is_defined_on_its_class(self, owner, attr):
        assert callable(vars(owner)[attr])


class TestRemovedRepairSurfaces:
    """Gossip is the one repair protocol; the retransmit knobs are gone."""

    def test_plane_has_no_retransmit_timeout(self):
        with pytest.raises(TypeError):
            EvidencePlane(mode="async", repair="gossip", retransmit_timeout=2.0)

    def test_registry_has_no_retransmit_timeout(self):
        with pytest.raises(TypeError):
            build_registered_scenario(
                "ebay", size=8, rounds=2, evidence_mode="async",
                retransmit_timeout=2.0,
            )

    @pytest.mark.parametrize("repair", [None, 2, ("gossip",)])
    def test_plane_takes_a_repair_name_only(self, repair):
        with pytest.raises(SimulationError, match=r"\('off', 'gossip'\)"):
            EvidencePlane(mode="async", repair=repair)

    def test_plane_rejects_a_ready_policy_instance(self):
        donor = EvidencePlane(mode="async", repair="gossip")
        policy = GossipPolicy(donor, period=1.0, fanout=2)
        with pytest.raises(SimulationError, match=r"\('off', 'gossip'\)"):
            EvidencePlane(mode="async", repair=policy)


class TestPolicyFactory:
    def test_known_policies(self):
        assert REPAIR_POLICIES == ("off", "gossip")
        for name in REPAIR_POLICIES:
            plane = EvidencePlane(mode="async", repair=name)
            assert plane.journaling == (name == "gossip")

    def test_unknown_policy_rejected(self):
        for name in ("carrier-pigeon", "retransmit"):
            with pytest.raises(SimulationError, match=r"\('off', 'gossip'\)"):
                EvidencePlane(mode="async", repair=name)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(SimulationError):
            EvidencePlane(mode="async", repair="gossip", gossip_period=0.0)
        with pytest.raises(SimulationError):
            EvidencePlane(mode="async", repair="gossip", gossip_fanout=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("repair, knob", [("gossip", "gossip_period")])
    def test_non_finite_knobs_rejected(self, repair, knob, value):
        # An infinite gossip period would never gossip and a NaN one would
        # gossip every round.
        with pytest.raises(SimulationError, match="finite"):
            EvidencePlane(mode="async", latency=1.0, repair=repair, **{knob: value})

    def test_sync_plane_rejects_repair(self):
        with pytest.raises(SimulationError):
            EvidencePlane(mode="sync", repair="gossip")
        with pytest.raises(SimulationError):
            EvidencePlane(mode="sync", fault=lambda s, r, now: False)

    @pytest.mark.parametrize("knobs", [
        dict(latency=3.0),
        dict(loss=0.9),
        dict(latency=3.0, loss=0.9),
        dict(latency_model=FixedLatency(0.0)),
    ])
    def test_sync_plane_rejects_latency_and_loss(self, knobs):
        # A sync plane applies evidence at once and loses none, so delay or
        # loss knobs on it would be silently inert.
        with pytest.raises(SimulationError):
            EvidencePlane(mode="sync", **knobs)
        assert EvidencePlane(mode="async", **knobs).is_async


class TestDedupIdempotency:
    """A second copy of an applied entry is suppressed, never re-applied."""

    @staticmethod
    def _gossip_plane(*peer_ids):
        plane = EvidencePlane(
            mode="async", latency_model=FixedLatency(1.0), repair="gossip"
        )
        peers = [CommunityPeer(peer_id) for peer_id in peer_ids]
        for peer in peers:
            plane.register_peer(peer)
        return plane, peers

    @staticmethod
    def _only_entry(plane, origin_id):
        (key,) = plane.journals[origin_id].keys()
        return plane.journals[origin_id].get(key)

    def test_forced_duplicate_delivery_applies_once(self):
        # A relay carries the entry to its recipient before the direct copy
        # lands, so the recipient sees the same entry twice; dedup must keep
        # the backend write-once.
        plane, (peer, _) = self._gossip_plane("c", "s")
        plane.submit_records("c", [_record()], sender_id="s")
        plane.ingest_entry("c", self._only_entry(plane, "s"), 0.0)
        assert _observed(peer) == 1
        plane.advance(1.0)  # the direct copy arrives
        assert _observed(peer) == 1
        counters = plane.counters
        assert counters.duplicates_suppressed >= 1
        assert counters.entries_applied == 1
        assert counters.entries_emitted == 1
        assert counters.effective_delivery_ratio == 1.0

    def test_duplicate_complaints_count_once(self):
        # A relay forwards the filing to the sink while the direct copy is
        # still in flight: two copies land, one is counted.
        plane, (filer, _) = self._gossip_plane("f", "r")
        plane.submit_complaint(filer, "villain", timestamp=0.0)
        plane.ingest_entry("r", self._only_entry(plane, "f"), 0.0)
        plane.drain(max_ticks=20)
        assert filer.backend_for("complaint").counts("villain")[0] == 1
        assert plane.counters.duplicates_suppressed >= 1
        assert plane.counters.entries_applied == 1


class TestGossipRecovery:
    def _community_plane(self, loss, n=6, seed=5, period=1.0, fanout=2):
        plane = EvidencePlane(
            mode="async",
            latency=0.5,
            loss=loss,
            rng=random.Random(seed),
            repair="gossip",
            gossip_period=period,
            gossip_fanout=fanout,
            repair_rng=random.Random(seed + 1),
        )
        peers = [CommunityPeer(f"g{i}") for i in range(n)]
        for peer in peers:
            plane.register_peer(peer)
        return plane, peers

    def test_lossy_evidence_heals_through_relays(self):
        plane, peers = self._community_plane(loss=0.4)
        for tick in range(12):
            plane.advance(float(tick))
            for index, peer in enumerate(peers):
                partner = peers[(index + 1) % len(peers)]
                plane.submit_records(
                    peer.peer_id,
                    [_record(supplier=partner.peer_id, consumer=peer.peer_id,
                             timestamp=float(tick))],
                    sender_id=partner.peer_id,
                )
        ticks = plane.drain(max_ticks=120)
        counters = plane.counters
        assert counters.effective_delivery_ratio == 1.0
        assert counters.repair_messages > 0
        assert counters.dropped > 0
        assert ticks < 120
        # Every applied entry carries a convergence-lag sample.
        assert len(counters.convergence_lags) == counters.entries_applied
        assert counters.convergence_lag_p95 >= counters.convergence_lag_p50

    def test_complaints_reach_the_sink_through_gossip(self):
        # Complaints relayed peer-to-peer are forwarded to the community
        # store by the first holder to learn of them.
        plane, peers = self._community_plane(loss=0.7, seed=9)
        for tick in range(8):
            plane.advance(float(tick))
            plane.submit_complaint(peers[0], "villain", timestamp=float(tick))
        plane.drain(max_ticks=200)
        counters = plane.counters
        assert counters.effective_delivery_ratio == 1.0
        assert peers[0].backend_for("complaint").counts("villain")[0] == 8

    def test_zero_loss_gossip_stays_quietly_converged(self):
        plane, peers = self._community_plane(loss=0.0)
        plane.submit_records(
            "g0", [_record(supplier="g1", consumer="g0")], sender_id="g1"
        )
        ticks = plane.drain(max_ticks=50)
        assert plane.counters.effective_delivery_ratio == 1.0
        assert ticks < 10


class _SamplingPlane:
    """Just enough of a plane for ``GossipPolicy.on_round`` to pick partners."""

    def __init__(self, peer_ids, seed):
        self._peer_ids = tuple(peer_ids)
        self.repair_rng = random.Random(seed)
        self.sent = []

    def registered_ids(self):
        return self._peer_ids

    def journal_for(self, peer_id):
        return EvidenceJournal(EntryCatalog())

    def repair_send(self, sender_id, recipient_id, payload, kind):
        self.sent.append((sender_id, recipient_id))


class TestGossipPartnerSampling:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sets(st.text("abcdefgh", min_size=1, max_size=3), max_size=12),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_partners_match_sampling_the_others_list(self, peers, fanout, seed):
        peer_ids = sorted(peers)
        plane = _SamplingPlane(peer_ids, seed)
        GossipPolicy(plane, fanout=fanout).on_round(1.0)
        rng = random.Random(seed)
        expected = []
        if len(peer_ids) >= 2:
            for peer_id in peer_ids:
                others = [other for other in peer_ids if other != peer_id]
                for partner_id in rng.sample(others, min(fanout, len(others))):
                    expected.append((peer_id, partner_id))
        assert plane.sent == expected
        assert plane.repair_rng.getstate() == rng.getstate()


class TestChurnHardening:
    """Satellite: churned recipients must surface as accounted-for losses."""

    @pytest.mark.parametrize("repair", ["off", "gossip"])
    def test_unregister_with_in_flight_traffic(self, repair):
        plane = EvidencePlane(
            mode="async",
            latency_model=FixedLatency(2.0),
            loss=0.0,
            repair=repair,
        )
        stay = CommunityPeer("stay")
        churner = CommunityPeer("gone")
        plane.register_peer(stay)
        plane.register_peer(churner)
        record = _record(supplier="stay", consumer="gone")
        plane.submit_records("gone", [record], sender_id="stay")
        plane.submit_records("stay", [record], sender_id="gone")
        # Departure with a message in flight to and from the churner must
        # neither raise nor leave an entry neither applied nor written off.
        plane.unregister_peer("gone")
        assert plane.drain(max_ticks=50) < 50
        plane.advance(10.0)  # whatever is still in flight lands
        counters = plane.counters
        assert (
            counters.delivered
            + counters.dropped
            + counters.undeliverable
            + counters.in_flight
            == counters.sent
        )
        assert counters.in_flight == 0
        assert counters.entries_emitted == 2
        assert counters.entries_expired == 1  # the churner's mail
        assert counters.missing_entries == 0
        assert counters.effective_delivery_ratio == pytest.approx(0.5)
        assert _observed(stay) == 1

    def test_gossip_orphaned_origin_is_written_off(self):
        # An entry whose origin departs before any surviving journal holds a
        # copy can never be repaired; the ledger must close it out.
        plane = EvidencePlane(
            mode="async",
            latency_model=FixedLatency(1.0),
            loss=0.97,
            rng=random.Random(2),
            repair="gossip",
            gossip_period=1.0,
        )
        peers = [CommunityPeer(f"c{i}") for i in range(3)]
        for peer in peers:
            plane.register_peer(peer)
        plane.submit_records("c1", [_record()], sender_id="c0")
        plane.unregister_peer("c0")  # origin gone, journal copy gone with it
        ticks = plane.drain(max_ticks=60)
        counters = plane.counters
        assert ticks < 60
        assert counters.missing_entries == 0

    def test_last_journal_holder_leaving_after_origin_writes_entry_off(self):
        # The origin leaves while a relay still journals its entry; when
        # that relay leaves too, no copy survives anywhere and the entry
        # must be written off rather than keep the drain spinning.
        plane = EvidencePlane(
            mode="async",
            latency_model=FixedLatency(1.0),
            repair="gossip",
            gossip_period=1.0,
            fault=lambda sender, recipient, now: True,  # every link cut
        )
        for peer_id in ("origin", "recipient", "relay"):
            plane.register_peer(CommunityPeer(peer_id))
        plane.submit_records("recipient", [_record()], sender_id="origin")
        (key,) = plane.journals["origin"].keys()
        plane.ingest_entry("relay", plane.journals["origin"].get(key), 0.0)
        plane.unregister_peer("origin")  # the relay's copy keeps it alive
        assert plane.counters.entries_expired == 0
        plane.unregister_peer("relay")  # the last copy leaves
        assert plane.counters.entries_expired == 1
        assert plane.counters.missing_entries == 0
        assert plane.drain(max_ticks=20) == 0

    def test_async_churned_community_run_keeps_ledger_consistent(self):
        scenario = build_registered_scenario(
            "high-churn", size=12, rounds=10, seed=4, rebalance="off",
            evidence_mode="async", evidence_latency=1.5, evidence_loss=0.3,
            evidence_repair="gossip",
        )
        simulation = scenario.simulation(TrustAwareStrategy())
        result = simulation.run()
        churned = [r.churn for r in result.rounds if r.churn and r.churn.departed]
        assert churned  # departures actually happened mid-flight
        simulation.evidence_plane.drain(max_ticks=150)
        counters = result.evidence_counters
        assert (
            counters.delivered
            + counters.dropped
            + counters.undeliverable
            + counters.in_flight
            == counters.sent
        )
        assert counters.missing_entries == 0
        assert (
            counters.entries_applied + counters.entries_expired
            == counters.entries_emitted
        )

    @pytest.mark.parametrize(
        "name, seed, latency, loss, drained",
        [
            # A repair-entries batch in flight carries the written-off entry.
            ("high-churn", 4, 1, 0.2, (334, 37)),
            # The entry's own first send is still in flight.
            ("flash-crowd", 10, 3, 0.1, (1066, 51)),
        ],
    )
    def test_drained_write_offs_are_final(self, name, seed, latency, loss, drained):
        # These runs reach missing_entries == 0 while a copy of an entry
        # written off at a departure is still in flight to a peer that is
        # still here.  The copy lands later and reverses the write-off, so
        # the drain waits for it: 50 more ticks leave the counters as drained.
        scenario = build_registered_scenario(
            name, size=20, rounds=10, seed=seed,
            evidence_mode="async", evidence_latency=latency, evidence_loss=loss,
            evidence_repair="gossip", witness_count=3,
        )
        simulation = scenario.simulation()
        simulation.run()
        plane = simulation.evidence_plane
        counters = plane.counters
        plane.drain()
        assert (counters.entries_applied, counters.entries_expired) == drained
        for _ in range(50):
            plane.advance(plane._network.now + 1.0)
            assert (counters.entries_applied, counters.entries_expired) == drained

def _trust_free_run(evidence_mode, repair="off", loss=0.0, latency=0.0, seed=11):
    """An ebay run whose outcomes cannot depend on trust state.

    Random matching plus the goods-first baseline reads no trust before
    acting, so sync and async runs execute identical interactions — which
    makes the final backend states comparable.
    """
    scenario = build_registered_scenario("ebay", size=10, rounds=12, seed=seed)
    config = dataclasses.replace(
        scenario.config,
        evidence_mode=evidence_mode,
        evidence_latency=latency,
        evidence_loss=loss,
        evidence_repair=repair,
    )
    simulation = CommunitySimulation(
        scenario.peers, GoodsFirstStrategy(), config
    )
    result = simulation.run()
    if evidence_mode == "async":
        simulation.evidence_plane.drain(max_ticks=300)
    return scenario.peers, result


class TestConvergenceToSyncState:
    """Satellite: a drained repaired run matches the sync run's backends."""

    @pytest.mark.parametrize("repair", ["gossip"])
    @pytest.mark.parametrize("method", [TrustMethod.BETA, TrustMethod.DECAY])
    def test_beta_family_snapshots_match(self, repair, method):
        sync_peers, _ = _trust_free_run("sync")
        async_peers, result = _trust_free_run(
            "async", repair=repair, loss=0.25, latency=1.0
        )
        assert result.evidence_counters.dropped > 0
        assert result.evidence_effective_delivery_ratio == 1.0
        ids = sorted(peer.peer_id for peer in sync_peers)
        by_id_sync = {peer.peer_id: peer for peer in sync_peers}
        by_id_async = {peer.peer_id: peer for peer in async_peers}
        for peer_id in ids:
            others = [other for other in ids if other != peer_id]
            sync_scores = by_id_sync[peer_id].backend_for(method).scores_for(
                others, now=12.0
            )
            async_scores = by_id_async[peer_id].backend_for(method).scores_for(
                others, now=12.0
            )
            np.testing.assert_allclose(
                async_scores, sync_scores, rtol=0, atol=1e-9
            )

    def test_complaint_counts_match_modulo_order(self):
        sync_peers, _ = _trust_free_run("sync", seed=13)
        async_peers, result = _trust_free_run(
            "async", repair="gossip", loss=0.3, latency=1.0, seed=13
        )
        assert result.evidence_effective_delivery_ratio == 1.0
        ids = sorted(peer.peer_id for peer in sync_peers)
        sync_store = sync_peers[0].backend_for("complaint")
        async_store = async_peers[0].backend_for("complaint")
        for peer_id in ids:
            assert sync_store.counts(peer_id) == async_store.counts(peer_id)

    def test_lossless_repair_off_matches_sync_too(self):
        # The pre-repair pinning: repair off + zero loss must not change
        # what the backends learn.
        sync_peers, _ = _trust_free_run("sync")
        async_peers, _ = _trust_free_run("async", latency=1e-6)
        for sync_peer, async_peer in zip(sync_peers, async_peers):
            assert _observed(sync_peer) == _observed(async_peer)


class TestPartitionHealScenario:
    def test_scenario_defaults_to_async_gossip_with_fault(self):
        scenario = build_registered_scenario(
            "partition-heal", size=10, rounds=8, seed=1
        )
        config = scenario.config
        assert config.evidence_mode == "async"
        assert config.evidence_repair == "gossip"
        assert config.evidence_fault is not None
        # Cross-clique links are down before the heal point, up after it.
        assert config.evidence_fault("heal-000", "heal-001", 0.0)
        assert not config.evidence_fault("heal-000", "heal-002", 0.0)
        assert not config.evidence_fault("heal-000", "heal-001", 4.0)

    def test_partition_drops_then_heals_and_reconverges(self):
        scenario = build_registered_scenario(
            "partition-heal", size=12, rounds=14, seed=3, backend="beta",
            evidence_loss=0.1,
        )
        simulation = scenario.simulation(TrustAwareStrategy())
        result = simulation.run()
        counters = result.evidence_counters
        assert counters.dropped > 0  # the partition really cut links
        simulation.evidence_plane.drain(max_ticks=200)
        # Anti-entropy backfills everything that was cut or lost.
        assert result.evidence_effective_delivery_ratio >= 0.99
        assert counters.missing_entries == 0


class TestFluctuatingBehaviourScenario:
    def test_population_contains_milkers(self):
        scenario = build_registered_scenario(
            "fluctuating-behaviour", size=12, rounds=10, seed=2
        )
        milkers = [
            peer for peer in scenario.peers
            if isinstance(peer.behavior, FluctuatingBehavior)
        ]
        assert len(milkers) == 3  # 25% of 12
        behavior = milkers[0].behavior
        assert behavior.honesty_at(0.0) == 1.0
        assert behavior.honesty_at(10.0) < 0.5  # switch at rounds/2 = 5

    def test_milkers_defect_only_after_the_switch(self):
        scenario = build_registered_scenario(
            "fluctuating-behaviour", size=16, rounds=20, seed=6, backend="beta"
        )
        milker_ids = {
            peer.peer_id for peer in scenario.peers
            if isinstance(peer.behavior, FluctuatingBehavior)
        }
        simulation = scenario.simulation(TrustAwareStrategy())
        result = simulation.run(collect_outcomes=True)
        switch = scenario.config.rounds * 0.5

        def defector_id(record):
            if record.defector == "supplier":
                return record.supplier_id
            if record.defector == "consumer":
                return record.consumer_id
            return None

        early_defections = [
            outcome for outcome in result.outcomes
            if outcome.record is not None
            and not outcome.record.completed
            and outcome.timestamp < switch
            and defector_id(outcome.record) in milker_ids
        ]
        assert early_defections == []

    def test_registry_defaults_to_decay_backend(self):
        scenario = build_registered_scenario(
            "fluctuating-behaviour", size=8, rounds=4, seed=1
        )
        assert scenario.trust_method == TrustMethod.DECAY


class TestConfigValidation:
    def test_repair_requires_async(self):
        with pytest.raises(SimulationError):
            CommunityConfig(evidence_repair="gossip")
        with pytest.raises(SimulationError):
            CommunityConfig(evidence_fault=lambda s, r, now: False)

    def test_unknown_repair_rejected(self):
        with pytest.raises(SimulationError):
            CommunityConfig(evidence_mode="async", evidence_repair="quantum")

    def test_retransmit_repair_rejected(self):
        with pytest.raises(SimulationError, match=r"\('off', 'gossip'\)"):
            CommunityConfig(evidence_mode="async", evidence_repair="retransmit")
        with pytest.raises(TypeError):
            CommunityConfig(evidence_mode="async", retransmit_timeout=2.0)

    def test_invalid_repair_knobs_rejected(self):
        with pytest.raises(SimulationError):
            CommunityConfig(evidence_mode="async", gossip_period=0.0)
        with pytest.raises(SimulationError):
            CommunityConfig(evidence_mode="async", gossip_fanout=0)

    def test_repair_off_with_async_is_fine(self):
        config = CommunityConfig(evidence_mode="async", evidence_loss=0.1)
        assert config.evidence_repair == "off"
