"""Oracle tests of the community beta evidence table.

The reference is what every peer held before the table existed: one private
``create_backend("beta")`` per observer, fed that observer's share of each
batch.  Random multi-observer batches go into one
:class:`~repro.trust.community.CommunityBetaTable` and into the reference
backends, with reads interleaved between the writes.  The pool holds enough
pairs to grow the table past several capacity doublings, subjects that are
no peer, and self-observations.  Every read a peer makes must be
bit-identical to the reference: ``trust_in``, ``trust_in_many`` over plain
names and over resolved columns, ``trust_in_with_witnesses``,
``build_witness_reports`` under truthful and coalition witnesses, and the
``backend_for("beta")`` snapshot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TrustModelError
from repro.reputation.records import InteractionRecord
from repro.simulation.behaviors import CoalitionWitness, TruthfulWitness
from repro.simulation.peer import CommunityPeer, TrustMethod
from repro.trust import (
    CommunityBetaTable,
    SubjectColumns,
    TrustObservation,
    create_backend,
    stack_witness_beliefs,
)
from repro.trust.beta import BetaBelief

OBSERVERS = [f"o{index}" for index in range(6)]
#: Subjects: every observer (so self-observations occur) plus outsiders
#: that are no peer; 6 x 18 = 108 possible pairs, past 8 -> 16 -> 32 -> 64.
SUBJECTS = OBSERVERS + [f"s{index}" for index in range(12)]
STRANGERS = ["stranger", "nobody"]
WEIGHTS = [1.0, 0.1, 0.3, 1.7, 2.5, 1e-3, 7.25]
COALITION = frozenset({"o0", "s1", "s2"})

observations = st.builds(
    TrustObservation,
    observer_id=st.sampled_from(OBSERVERS),
    subject_id=st.sampled_from(SUBJECTS),
    honest=st.booleans(),
    weight=st.sampled_from(WEIGHTS),
)
batches = st.lists(st.lists(observations, min_size=1, max_size=12), min_size=1, max_size=14)
queries = st.lists(st.sampled_from(SUBJECTS + STRANGERS), min_size=1, max_size=10)


def _peers(table):
    peers = {}
    for index, name in enumerate(OBSERVERS):
        policy = (
            CoalitionWitness(members=COALITION) if index % 2 else TruthfulWitness()
        )
        peers[name] = CommunityPeer(name, witness_policy=policy)
        peers[name].join_table(table)
    return peers


def _reference_reports(peer, backend, subject_ids):
    """``build_witness_reports`` as it read a private beta backend."""
    reports = []
    for subject_id in subject_ids:
        if subject_id == peer.peer_id:
            continue
        belief = backend.belief(subject_id)
        reported = peer.witness_policy.report(subject_id, belief)
        forged = reported.alpha != belief.alpha or reported.beta != belief.beta
        if not forged and backend.observation_count(subject_id) == 0:
            continue
        reports.append((subject_id, reported.alpha, reported.beta))
    return reports


def _reference_witness_trust(backend, inbox, partner_id):
    """``trust_in_with_witnesses`` (BETA) as it read a private beta backend."""
    witness_ids = tuple(sorted(inbox))
    if not witness_ids:
        return backend.score(partner_id)
    matrix = stack_witness_beliefs(
        [[BetaBelief(*inbox[witness_id])] for witness_id in witness_ids]
    )
    discounts = np.clip(backend.scores_for(witness_ids), 0.0, 1.0)
    return float(backend.aggregate_witness_reports((partner_id,), matrix, discounts)[0])


def _same_bits(left, right):
    left, right = np.asarray(left), np.asarray(right)
    assert left.dtype == right.dtype and left.shape == right.shape
    assert left.tobytes() == right.tobytes()


def _check_reads(peers, references, names, table):
    """Every peer read; the scalar reads come first after a write."""
    for name, peer in peers.items():
        reference = references[name]
        expected = reference.scores_for(names)
        assert [peer.trust_in(subject) for subject in names] == expected.tolist()
        assert peer.build_witness_reports(names) == _reference_reports(
            peer, reference, names
        )
        for partner in names:
            inbox = peer.witness_reports_about(partner)
            assert peer.trust_in_with_witnesses(partner) == _reference_witness_trust(
                reference, inbox, partner
            )
        _same_bits(peer.trust_in_many(names), expected)
        _same_bits(peer.trust_in_many(table.columns(names)), expected)


@settings(max_examples=40, deadline=None)
@given(batches=batches, reads=st.lists(queries, min_size=1, max_size=14))
def test_table_reads_equal_one_private_backend_per_observer(batches, reads):
    table = CommunityBetaTable()
    peers = _peers(table)
    references = {name: create_backend("beta") for name in OBSERVERS}
    for step, batch in enumerate(batches):
        table.update_many(batch)
        for name, reference in references.items():
            reference.update_many([o for o in batch if o.observer_id == name])
        names = reads[step % len(reads)]
        _check_reads(peers, references, names, table)
        # Witness traffic: every peer asks every other about the subjects
        # just read, so later witness-trust reads fold second-hand evidence.
        for requester in peers.values():
            for witness in peers.values():
                if witness is not requester:
                    requester.receive_witness_reports(
                        witness.peer_id, witness.build_witness_reports(names)
                    )
    assert table.row_count() == len(
        {(o.observer_id, o.subject_id) for batch in batches for o in batch}
    )
    for name, peer in peers.items():
        snapshot = peer.backend_for(TrustMethod.BETA).snapshot()
        expected = references[name].snapshot()
        assert snapshot.keys() == expected.keys()
        for key in expected:
            _same_bits(snapshot[key], expected[key])


def _record(supplier, consumer, honest=True, value=3.0, t=0.0):
    return InteractionRecord(
        supplier_id=supplier,
        consumer_id=consumer,
        completed=honest,
        defector=None if honest else "supplier",
        value=value,
        timestamp=t,
    )


class TestAdoption:
    def test_joining_a_table_keeps_the_private_evidence(self):
        alice = CommunityPeer("alice")
        alice.observe_outcomes(
            [_record("bob", "alice"), _record("carol", "alice", honest=False)]
        )
        before = alice.backend_for(TrustMethod.BETA).snapshot()
        scores = alice.trust_in_many(["bob", "carol", "dave"])
        table = CommunityBetaTable()
        table.update_many([TrustObservation("zed", "bob", honest=False)])
        alice.join_table(table)
        after = alice.backend_for(TrustMethod.BETA).snapshot()
        for key in before:
            _same_bits(after[key], before[key])
        _same_bits(alice.trust_in_many(["bob", "carol", "dave"]), scores)
        # Another observer's cells stay its own.
        assert alice.backend_for(TrustMethod.BETA).observation_count("bob") == 1

    def test_backend_for_is_a_snapshot(self):
        alice = CommunityPeer("alice")
        alice.observe_outcome(_record("bob", "alice"))
        copy = alice.backend_for(TrustMethod.BETA)
        copy.update(TrustObservation("alice", "bob", honest=False))
        assert alice.backend_for(TrustMethod.BETA).observation_count("bob") == 1

    def test_whole_table_has_no_snapshot(self):
        table = CommunityBetaTable()
        with pytest.raises(TrustModelError, match="backend_for"):
            table.snapshot()
        with pytest.raises(TrustModelError):
            table.restore({})


class TestColumns:
    def test_resolved_columns_pass_through_and_read_like_names(self):
        table = CommunityBetaTable()
        table.update_many([TrustObservation("a", "b", honest=True)])
        columns = table.columns(["b", "c", "b"])
        assert isinstance(columns, SubjectColumns)
        assert table.columns(columns) is columns
        assert list(columns) == ["b", "c", "b"] and len(columns) == 3
        observer = table.ids.get("a")
        assert table.row(observer, columns).tolist() == [2 / 3, 0.5, 2 / 3]

    def test_columns_of_another_table_are_resolved_again(self):
        first, second = CommunityBetaTable(), CommunityBetaTable()
        second.update_many([TrustObservation("a", "b", honest=False)])
        columns = first.columns(["b"])
        observer = second.ids.get("a")
        assert second.row(observer, second.columns(columns)).tolist() == [1 / 3]
