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
``build_witness_reports`` and its batched form ``WitnessQuestions.answers``
under truthful and coalition witnesses, and the ``backend_for("beta")``
snapshot.  The table's own batched read ``pair_beliefs`` must equal
``belief`` and ``observation_count`` of each pair key.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TrustModelError
from repro.reputation.records import InteractionRecord
from repro.simulation.behaviors import CoalitionWitness, TruthfulWitness
from repro.simulation.evidence import EvidencePlane
from repro.simulation.peer import CommunityPeer, TrustMethod, WitnessQuestions
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


def witness_reports_for(witness, subject_ids):
    """``witness``'s batched answer about each subject (``None``: no report)."""
    questions = WitnessQuestions.of_rows(
        [(witness.peer_id, witness.peer_id, subject) for subject in subject_ids],
        {witness.peer_id: witness}.get,
    )
    reports = [None] * len(subject_ids)
    rows, sent = questions.answers()
    for row, report in zip(rows.tolist(), sent):
        reports[row] = report
    return reports


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


def _check_pair_beliefs(table, observer, names):
    """``pair_beliefs`` of one observer about ``names`` against the scalar reads."""
    gids = [table.gid(name) for name in names]
    alpha, beta, count = table.pair_beliefs([observer] * len(names), gids)
    assert alpha.dtype == beta.dtype == np.float64 and count.dtype == np.int64
    for key, a, b, c in zip(table.pair_keys(observer, names), alpha, beta, count):
        belief = table.belief(key)
        assert (a.hex(), b.hex()) == (belief.alpha.hex(), belief.beta.hex())
        assert c == table.observation_count(key)


def _check_reads(peers, references, names, table):
    """Every peer read; the scalar reads come first after a write."""
    for name, peer in peers.items():
        reference = references[name]
        expected = reference.scores_for(names)
        assert [peer.trust_in(subject) for subject in names] == expected.tolist()
        assert peer.build_witness_reports(names) == _reference_reports(
            peer, reference, names
        )
        batched = witness_reports_for(peer, names)
        assert [report for report in batched if report is not None] == (
            _reference_reports(peer, reference, names)
        )
        _check_pair_beliefs(table, table.ids.get(name), names)
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

    def test_joining_a_table_keeps_the_witness_discounts(self):
        alice = CommunityPeer("alice")
        alice.observe_outcomes(
            [_record("witness", "alice"), _record("bob", "alice", honest=False)]
        )
        alice.receive_witness_reports("witness", [("bob", 9.0, 1.0)])
        alice.receive_witness_reports("stranger", [("bob", 1.0, 6.0)])
        before = alice.trust_in_with_witnesses("bob")
        table = CommunityBetaTable()
        # Other names first, so every gid differs from the private table's.
        table.update_many(
            [TrustObservation("zed", name, honest=False) for name in ("bob", "witness")]
        )
        alice.join_table(table)
        assert alice.trust_in_with_witnesses("bob").hex() == before.hex()
        alice.observe_outcome(_record("stranger", "alice", honest=False))
        assert alice.trust_in_with_witnesses("bob") > before

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
        scores, known = table.rows([observer], columns)
        assert scores.tolist() == [[2 / 3, 0.5, 2 / 3]] and known == 1

    def test_columns_of_another_table_are_resolved_again(self):
        first, second = CommunityBetaTable(), CommunityBetaTable()
        second.update_many([TrustObservation("a", "b", honest=False)])
        columns = first.columns(["b"])
        observer = second.ids.get("a")
        scores, _ = second.rows([observer], second.columns(columns))
        assert scores.tolist() == [[1 / 3]]


class TestPairBeliefs:
    def test_an_empty_table_reads_the_prior(self):
        table = CommunityBetaTable(prior_alpha=2.0, prior_beta=3.0)
        alpha, beta, count = table.pair_beliefs([0, 1, 5], [1, -1, 0])
        assert alpha.tolist() == [2.0] * 3 and beta.tolist() == [3.0] * 3
        assert count.tolist() == [0] * 3
        empty = table.pair_beliefs([], [])
        assert [len(column) for column in empty] == [0, 0, 0]

    def test_unknown_subjects_and_pairs_read_the_prior(self):
        table = CommunityBetaTable()
        table.update_many(
            [
                TrustObservation("a", "b", honest=True, weight=2.5),
                TrustObservation("a", "b", honest=False),
                TrustObservation("c", "a", honest=False, weight=0.3),
            ]
        )
        a, b, c = (table.gid(name) for name in "abc")
        assert table.gid("stranger") == -1
        # Known pairs, an unknown pair (b never observed c), an unknown
        # subject, and a pair whose reverse is known.
        observers, subjects = [a, c, b, a, b], [b, a, c, -1, a]
        alpha, beta, count = table.pair_beliefs(observers, subjects)
        assert alpha.tolist() == [3.5, 1.0, 1.0, 1.0, 1.0]
        assert beta.tolist() == [2.0, 1.3, 1.0, 1.0, 1.0]
        assert count.tolist() == [2, 1, 0, 0, 0]
        for observer in (a, b, c):
            _check_pair_beliefs(table, observer, ["a", "b", "c", "stranger"])

    def test_queued_writes_are_applied_first(self):
        table = CommunityBetaTable()
        a = table.ids.intern("a")
        table.observe_columns([a], [table.ids.intern("b")], [True], [1.0])
        _, _, count = table.pair_beliefs([a], [table.gid("b")])
        assert count.tolist() == [1]


class TestBatchedWitnessAnswers:
    """A sync plane answers a round's rows with one gather; each requester
    ends with the reports the scalar reference sends, in row order."""

    def _community(self):
        table = CommunityBetaTable()
        peers = _peers(table)
        # o0 is truthful, o1 a coalition member; both observe members and
        # outsiders, o1 with alpha == beta about s3 after two observations.
        observations = [
            TrustObservation("o0", "s1", honest=True),
            TrustObservation("o0", "s3", honest=False, weight=1.7),
            TrustObservation("o1", "s1", honest=False),
            TrustObservation("o1", "s3", honest=True),
            TrustObservation("o1", "s3", honest=False),
            TrustObservation("o1", "o2", honest=True, weight=0.3),
            TrustObservation("o2", "o1", honest=False),
        ]
        for name, peer in peers.items():
            peer_observations = [o for o in observations if o.observer_id == name]
            if peer_observations:
                table.update_many(peer_observations)
        references = {name: create_backend("beta") for name in OBSERVERS}
        for name, reference in references.items():
            reference.update_many([o for o in observations if o.observer_id == name])
        plane = EvidencePlane(mode="sync")
        for peer in peers.values():
            plane.register_peer(peer)
        return peers, references, plane

    def test_inboxes_match_the_reference_reports(self):
        peers, references, plane = self._community()
        rows = [
            (requester, witness, subject)
            for requester in ("o2", "o3")
            for witness in ("o0", "o1", "o3")
            for subject in ("s1", "s3", "s5", "o2", "o1", "s1", "stranger")
        ]
        plane.request_witness_reports(WitnessQuestions.of_rows(rows, peers.get))
        for requester in ("o2", "o3"):
            expected = {}
            for _, witness, subject in (r for r in rows if r[0] == requester):
                if witness == requester:
                    continue
                for subject_id, alpha, beta in _reference_reports(
                    peers[witness], references[witness], [subject]
                ):
                    expected.setdefault(subject_id, {})[witness] = (alpha, beta)
            for subject in ("s1", "s3", "s5", "o1", "o2", "stranger"):
                assert peers[requester].witness_reports_about(subject) == expected.get(
                    subject, {}
                )

    def test_coalition_inversion_with_equal_counts(self):
        peers, references, _ = self._community()
        coalition = peers["o1"]
        assert isinstance(coalition.witness_policy, CoalitionWitness)
        # s5: no evidence, alpha == beta == prior; inverted it is unchanged
        # and so not forged, and with count 0 it is omitted.  s3: alpha ==
        # beta after two observations, so sent as it is.  s1 (a member) is
        # vouched for.
        names = ["s5", "s3", "s1", "o1"]
        batched = witness_reports_for(coalition, names)
        assert batched == [None, ("s3", 2.0, 2.0), ("s1", 21.0, 1.0), None]
        assert [r for r in batched if r is not None] == _reference_reports(
            coalition, references["o1"], names
        )

    def test_witnesses_in_private_tables_answer_like_the_scalar_read(self):
        # Peers outside a simulation keep private tables: one batch then
        # gathers once per table.
        plane = EvidencePlane(mode="sync")
        truthful = CommunityPeer("t")
        forger = CommunityPeer("f", witness_policy=CoalitionWitness(members={"m"}))
        requester = CommunityPeer("r")
        for peer in (truthful, forger, requester):
            plane.register_peer(peer)
        truthful.observe_outcomes([_record("x", "t"), _record("y", "t", honest=False)])
        forger.observe_outcomes([_record("y", "f", value=4.0)])
        rows = [
            ("r", witness, subject)
            for subject in ("x", "y", "m", "t", "nobody")
            for witness in ("t", "f")
        ]
        by_id = {peer.peer_id: peer for peer in (truthful, forger, requester)}
        plane.request_witness_reports(WitnessQuestions.of_rows(rows, by_id.get))
        for subject in ("x", "y", "m", "t", "nobody"):
            expected = {
                witness.peer_id: (alpha, beta)
                for witness in (truthful, forger)
                for _, alpha, beta in witness.build_witness_reports([subject])
            }
            assert requester.witness_reports_about(subject) == expected
        assert requester.witness_reports_about("m") == {"f": (21.0, 1.0)}

    def test_rows_whose_witness_is_the_requester_are_skipped(self):
        peers, _, plane = self._community()
        plane.request_witness_reports(
            WitnessQuestions.of_rows([("o1", "o1", "s3"), ("o0", "o0", "s1")], peers.get)
        )
        assert peers["o1"].witness_reports_about("s3") == {}
        assert peers["o0"].witness_reports_about("s1") == {}
        plane.request_witness_reports(
            WitnessQuestions.of_rows([("o0", "o1", "s3")], peers.get)
        )
        assert peers["o0"].witness_reports_about("s3") == {"o1": (2.0, 2.0)}
