"""A peer's own trust state: its backends, the feedback loop and the method dispatch."""

import random

import pytest

from repro.exceptions import SimulationError
from repro.reputation.records import InteractionRecord
from repro.reputation.reporting import collect_witness_matrix
from repro.simulation.peer import CommunityPeer, TrustMethod
from repro.trust import DecayTrustBackend, LocalComplaintStore, create_backend
from repro.trust.evidence import Complaint
from repro.workloads.registry import build_registered_scenario


def completed(supplier, consumer, value=5.0, t=0.0):
    return InteractionRecord(
        supplier_id=supplier, consumer_id=consumer, completed=True, value=value,
        timestamp=t,
    )


def defected(supplier, consumer, defector, value=5.0, t=0.0):
    return InteractionRecord(
        supplier_id=supplier,
        consumer_id=consumer,
        completed=False,
        defector=defector,
        value=value,
        timestamp=t,
    )


def complainants_about(backend, accused):
    """Who filed the complaints about ``accused`` in ``backend``, in filing order."""
    return [c.complainant_id for c in backend.all_complaints() if c.accused_id == accused]


PARTNERS = [f"p{index}" for index in range(5)]


def mixed_history(seed=3, length=40):
    """Outcomes of ``alice`` with five partners, in both roles, some defected."""
    rng = random.Random(seed)
    records = []
    for t in range(length):
        partner = rng.choice(PARTNERS)
        supplier, consumer = (
            ("alice", partner) if rng.random() < 0.5 else (partner, "alice")
        )
        value = rng.choice((0.0, 0.5, 3.0, 9.0))
        if rng.random() < 0.6:
            records.append(completed(supplier, consumer, value=value, t=float(t)))
        else:
            defector = rng.choice(("supplier", "consumer"))
            records.append(
                defected(supplier, consumer, defector, value=value, t=float(t))
            )
    return records


@pytest.fixture
def decay_builds(monkeypatch):
    """Counts every decay backend built while the test runs."""
    built = []
    original = DecayTrustBackend.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DecayTrustBackend, "__init__", counting_init)
    return built


class TestRecording:
    def test_recording_moves_trust_in_the_partner(self):
        alice = CommunityPeer("alice")
        assert alice.trust_in("bob") == pytest.approx(0.5)
        alice.observe_outcome(completed("bob", "alice"))
        assert alice.trust_in("bob") > 0.5
        alice.observe_outcome(defected("alice", "carol", defector="consumer"))
        assert alice.trust_in("carol") < 0.5
        records = [completed("bob", "alice", value=v, t=float(v)) for v in (1, 3, 7)]
        batched, sequential = CommunityPeer("alice"), CommunityPeer("alice")
        batched.observe_outcomes(records)
        for record in records:
            sequential.observe_outcome(record)
        assert batched.trust_in("bob") == sequential.trust_in("bob")

    def test_partner_defection_files_a_complaint_own_defection_does_not(self):
        alice = CommunityPeer("alice")
        complaints = alice.backend_for(TrustMethod.COMPLAINT)
        alice.observe_outcome(defected("bob", "alice", defector="supplier"))
        assert complainants_about(complaints, "bob") == ["alice"]
        alice.observe_outcome(defected("carol", "alice", defector="consumer"))
        assert complainants_about(complaints, "carol") == []

    def test_foreign_record_rejected(self):
        with pytest.raises(SimulationError, match="not a participant"):
            CommunityPeer("alice").observe_outcome(completed("bob", "carol"))

    def test_failed_batch_leaves_nothing_behind(self):
        alice = CommunityPeer("alice")
        bad_batch = [
            defected("bob", "alice", defector="supplier"),
            completed("bob", "carol"),
        ]
        with pytest.raises(SimulationError):
            alice.observe_outcomes(bad_batch)
        assert alice.backend_for(TrustMethod.BETA).observation_count("bob") == 0
        complaints = alice.backend_for(TrustMethod.COMPLAINT)
        assert complainants_about(complaints, "bob") == []
        # Nothing was queued for the lazy decay replay either.
        alice.trust_method = TrustMethod.DECAY
        assert alice.trust_in("bob", now=0.0) == pytest.approx(0.5)


    def test_owner_as_supplier_learns_about_consumer(self):
        alice = CommunityPeer("alice")
        alice.observe_outcome(completed("alice", "bob"))
        assert alice.trust_in("bob") > 0.5
        assert alice.backend_for(TrustMethod.BETA).observation_count("alice") == 0

    def test_outcome_weight_follows_the_value_at_stake(self):
        trust_after = {}
        for value in (0.0, 0.5, 9.0):
            alice = CommunityPeer("alice")
            alice.observe_outcome(
                defected("bob", "alice", defector="supplier", value=value)
            )
            trust_after[value] = alice.trust_in("bob")
        # Values below one count as a single observation; larger stakes
        # weigh in proportion.
        assert trust_after[0.0] == trust_after[0.5] == pytest.approx(1 / 3)
        assert trust_after[9.0] == pytest.approx(1 / 11)

    def test_empty_batch_is_a_no_op(self, decay_builds):
        alice = CommunityPeer("alice")
        alice.observe_outcomes([])
        assert alice.backend_for(TrustMethod.BETA).observation_count("bob") == 0
        assert decay_builds == []


class TestTrustMethodDispatch:
    def test_unknown_method_assigned_later_raises(self):
        alice = CommunityPeer("alice")
        alice.trust_method = "tarot"
        with pytest.raises(SimulationError, match="tarot"):
            alice.trust_in("bob")
        with pytest.raises(SimulationError, match="tarot"):
            alice.trust_in_many(["bob"])

    @pytest.mark.parametrize(
        "method, neutral",
        [
            (TrustMethod.BETA, 0.5),
            (TrustMethod.COMPLAINT, 1.0),
            (TrustMethod.COMBINED, 0.5),
            (TrustMethod.DECAY, 0.5),
        ],
    )
    def test_unknown_partner_is_neutral(self, method, neutral):
        alice = CommunityPeer("alice", trust_method=method)
        assert alice.trust_in("stranger", now=0.0) == pytest.approx(neutral)
        assert alice.trust_in_many(["stranger", "other"], now=0.0).tolist() == [
            pytest.approx(neutral)
        ] * 2

    @pytest.mark.parametrize("method", TrustMethod.ALL)
    def test_batched_read_matches_single_reads(self, method):
        shared = create_backend("complaint", metric_mode="balanced")
        alice = CommunityPeer("alice", complaint_store=shared, trust_method=method)
        alice.observe_outcomes(mixed_history())
        queries = PARTNERS + ["stranger"]
        batched = alice.trust_in_many(queries, now=40.0)
        assert batched.shape == (len(queries),)
        assert batched.tolist() == [
            alice.trust_in(partner, now=40.0) for partner in queries
        ]

    @pytest.mark.parametrize("method", TrustMethod.ALL)
    def test_reads_between_outcomes_leave_trust_unchanged(self, method):
        """Reading trust while the peer's tables grow past their doubling
        boundaries (8 -> 16 -> 32 partners) moves no later answer."""
        partners = [f"q{index}" for index in range(40)]
        history = mixed_history(seed=5, length=40) + [
            completed(partner, "alice", value=float(index % 4), t=40.0 + index)
            if index % 3
            else defected(partner, "alice", "supplier", t=40.0 + index)
            for index, partner in enumerate(partners)
        ]
        queries = PARTNERS + partners + ["stranger"]
        reader = CommunityPeer("alice", trust_method=method)
        silent = CommunityPeer("alice", trust_method=method)
        for start in range(0, len(history), 6):
            batch = history[start:start + 6]
            reader.observe_outcomes(batch)
            silent.observe_outcomes(batch)
            reader.trust_in_many(queries, now=batch[-1].timestamp)
        assert reader.trust_in_many(queries, now=90.0).tolist() == (
            silent.trust_in_many(queries, now=90.0).tolist()
        )

    def test_backend_for_rejects_combined_and_unknown_names(self):
        alice = CommunityPeer("alice")
        for method in (TrustMethod.COMBINED, "tarot"):
            with pytest.raises(SimulationError, match="unknown trust method"):
                alice.backend_for(method)

    def test_decay_backend_is_built_once(self, decay_builds):
        alice = CommunityPeer("alice")
        first = alice.backend_for(TrustMethod.DECAY)
        assert alice.backend_for(TrustMethod.DECAY) is first
        assert len(decay_builds) == 1

    def test_combined_is_at_most_beta(self):
        shared = create_backend("complaint", metric_mode="balanced")
        for index in range(5):
            shared.file_complaint(
                Complaint(complainant_id=f"victim-{index}", accused_id="bob")
            )
        alice = CommunityPeer("alice", complaint_store=shared)
        for _ in range(5):
            alice.observe_outcome(completed("bob", "alice"))
        beta = alice.trust_in("bob")
        alice.trust_method = TrustMethod.COMBINED
        assert alice.trust_in("bob") <= beta
        assert alice.trust_in_many(["bob"])[0] == alice.trust_in("bob")

    def test_witness_reads_use_the_same_dispatch(self):
        shared = create_backend("complaint", metric_mode="balanced")
        shared.file_complaint(Complaint(complainant_id="victim", accused_id="bob"))
        alice = CommunityPeer("alice", complaint_store=shared)
        alice.observe_outcome(completed("bob", "alice"))
        alice.observe_outcome(completed("witness", "alice"))
        alice.receive_witness_reports("witness", [("bob", 1.0, 9.0)])
        augmented = {}
        for method in TrustMethod.ALL:
            alice.trust_method = method
            augmented[method] = alice.trust_in_with_witnesses("bob", now=0.0)
        assert augmented[TrustMethod.BETA] < 0.5 < alice.backend_for("beta").score("bob")
        assert augmented[TrustMethod.DECAY] < 0.5
        complaint = shared.score("bob")
        assert augmented[TrustMethod.COMPLAINT] == complaint
        assert augmented[TrustMethod.COMBINED] == min(
            augmented[TrustMethod.BETA], complaint
        )

    @pytest.mark.parametrize("method", TrustMethod.ALL)
    def test_empty_inbox_witness_read_equals_trust_in(self, method):
        alice = CommunityPeer("alice", trust_method=method)
        alice.observe_outcomes(mixed_history(seed=5))
        # Reports about someone else leave the read about p0 untouched.
        alice.receive_witness_reports("p1", [("p2", 9.0, 1.0)])
        for partner in ("p0", "stranger"):
            assert alice.trust_in_with_witnesses(partner, now=40.0) == alice.trust_in(
                partner, now=40.0
            )

    def test_complaint_method_ignores_witness_reports(self):
        shared = create_backend("complaint", metric_mode="balanced")
        shared.file_complaint(Complaint(complainant_id="victim", accused_id="bob"))
        alice = CommunityPeer(
            "alice", complaint_store=shared, trust_method=TrustMethod.COMPLAINT
        )
        alice.observe_outcome(completed("witness", "alice"))
        alice.receive_witness_reports("witness", [("bob", 9.0, 1.0)])
        assert alice.trust_in_with_witnesses("bob") == shared.score("bob")

    def test_shared_backend_is_used_as_given(self):
        shared = create_backend("complaint", metric_mode="balanced")
        alice = CommunityPeer("alice", complaint_store=shared)
        assert alice.backend_for(TrustMethod.COMPLAINT) is shared
        alice.file_complaint("bob", timestamp=2.0)
        assert complainants_about(shared, "bob") == ["alice"]

    def test_private_complaint_backends_stay_apart(self):
        alice, carol = CommunityPeer("alice"), CommunityPeer("carol")
        assert alice.backend_for(TrustMethod.COMPLAINT) is not carol.backend_for(
            TrustMethod.COMPLAINT
        )
        alice.observe_outcome(defected("bob", "alice", defector="supplier"))
        assert complainants_about(carol.backend_for("complaint"), "bob") == []

    def test_shared_backend_spreads_complaints(self):
        shared = create_backend("complaint", metric_mode="balanced")
        alice = CommunityPeer("alice", complaint_store=shared)
        carol = CommunityPeer(
            "carol", complaint_store=shared, trust_method=TrustMethod.COMPLAINT
        )
        assert carol.trust_in("bob") == pytest.approx(1.0)
        alice.observe_outcome(defected("bob", "alice", defector="supplier"))
        # Carol has no direct experience but sees Alice's complaint.
        assert carol.trust_in("bob") < 1.0

    def test_decay_backend_is_built_on_first_read_and_replays_history(
        self, decay_builds
    ):
        alice = CommunityPeer("alice")
        alice.observe_outcome(defected("bob", "alice", defector="supplier", t=0.0))
        alice.trust_in("bob")
        alice.trust_in_many(["bob"])
        assert decay_builds == []
        alice.trust_method = TrustMethod.DECAY
        assert alice.trust_in("bob", now=0.0) < 0.5
        assert len(decay_builds) == 1
        # Later outcomes go straight to the built backend.
        alice.observe_outcome(defected("bob", "alice", defector="supplier", t=1.0))
        assert alice.backend_for(TrustMethod.DECAY).observation_count("bob") == 2
        assert len(decay_builds) == 1


class TestInputChecks:
    def test_raw_complaint_store_rejected(self):
        with pytest.raises(SimulationError, match=r'create_backend\("complaint"'):
            CommunityPeer("alice", complaint_store=LocalComplaintStore())

    def test_empty_peer_id_rejected(self):
        with pytest.raises(SimulationError, match="peer_id"):
            CommunityPeer("")

    def test_negative_defection_penalty_rejected(self):
        with pytest.raises(SimulationError, match="defection_penalty"):
            CommunityPeer("alice", defection_penalty=-1.0)

    def test_unknown_method_at_construction_rejected(self):
        with pytest.raises(SimulationError, match="tarot"):
            CommunityPeer("alice", trust_method="tarot")

    def test_deleted_options_are_gone(self):
        with pytest.raises(TypeError):
            CommunityPeer("alice", prior_alpha=2.0)
        with pytest.raises(TypeError):
            collect_witness_matrix(["bob"], pool=None, sparse=True)
        with pytest.raises(TypeError):
            create_backend("complaint", store=LocalComplaintStore())


def test_sync_round_loop_builds_no_unread_decay(decay_builds):
    scenario = build_registered_scenario(
        "sybil-coalition", backend="beta", size=16, rounds=4, seed=0
    )
    assert scenario.config.evidence_mode == "sync"
    result = scenario.simulation().run()
    assert result.accounts.executed > 0
    assert decay_builds == []

    decay_run = build_registered_scenario(
        "sybil-coalition", backend="decay", size=16, rounds=4, seed=0
    )
    decay_run.simulation().run()
    assert decay_builds
