"""Snapshot/restore round-trips for the trust backends.

Long evidence-plane runs checkpoint backend state as a dict of numpy arrays
(evidence arrays plus the interned peer-id table).  A restored backend must
answer every query exactly as the original, keep accepting updates, and a
snapshot taken by one backend must refuse to restore into another.
"""

import numpy as np
import pytest

from repro.exceptions import TrustModelError
from repro.trust.backend import (
    BetaTrustBackend,
    ComplaintTrustBackend,
    DecayTrustBackend,
    TrustObservation,
    create_backend,
)
from repro.trust.beta import BetaBelief
from repro.trust.complaint import LocalComplaintStore
from repro.trust.evidence import Complaint


def _observations():
    return [
        TrustObservation("alice", "bob", True, timestamp=1.0, weight=2.0),
        TrustObservation("alice", "carol", False, timestamp=2.0),
        TrustObservation("dave", "bob", False, timestamp=3.0, weight=0.5),
        TrustObservation("erin", "dave", True, timestamp=4.0),
        TrustObservation("bob", "alice", False, timestamp=5.0),
    ]


SUBJECTS = ("alice", "bob", "carol", "dave", "erin", "stranger")


class TestBetaRoundTrip:
    def test_round_trip_preserves_scores_and_counts(self):
        backend = BetaTrustBackend(prior_alpha=2.0, prior_beta=1.0)
        backend.update_many(_observations())
        state = backend.snapshot()
        assert all(isinstance(value, np.ndarray) for value in state.values())

        restored = BetaTrustBackend()
        restored.restore(state)
        assert restored.known_subjects() == backend.known_subjects()
        assert np.allclose(
            restored.scores_for(SUBJECTS), backend.scores_for(SUBJECTS)
        )
        for subject in SUBJECTS:
            assert restored.observation_count(subject) == backend.observation_count(
                subject
            )

    def test_restored_backend_keeps_learning(self):
        backend = BetaTrustBackend()
        backend.update_many(_observations())
        restored = BetaTrustBackend()
        restored.restore(backend.snapshot())
        update = TrustObservation("alice", "bob", False, weight=4.0)
        backend.update(update)
        restored.update(update)
        assert np.allclose(
            restored.scores_for(SUBJECTS), backend.scores_for(SUBJECTS)
        )

    def test_snapshot_is_a_copy(self):
        backend = BetaTrustBackend()
        backend.update_many(_observations())
        state = backend.snapshot()
        before = backend.score("bob")
        state["alpha"][:] = 99.0
        assert backend.score("bob") == pytest.approx(before)


class TestDecayRoundTrip:
    def test_round_trip_preserves_decayed_scores(self):
        backend = DecayTrustBackend(half_life=20.0)
        backend.update_many(_observations())
        restored = DecayTrustBackend(half_life=999.0)  # overwritten by restore
        restored.restore(backend.snapshot())
        assert restored.half_life == backend.half_life
        for now in (None, 5.0, 60.0):
            assert np.allclose(
                restored.scores_for(SUBJECTS, now=now),
                backend.scores_for(SUBJECTS, now=now),
            )

    def test_restored_backend_accepts_new_evidence(self):
        backend = DecayTrustBackend(half_life=20.0)
        backend.update_many(_observations())
        restored = DecayTrustBackend()
        restored.restore(backend.snapshot())
        late = TrustObservation("alice", "carol", True, timestamp=30.0)
        backend.update(late)
        restored.update(late)
        assert np.allclose(
            restored.scores_for(SUBJECTS, now=35.0),
            backend.scores_for(SUBJECTS, now=35.0),
        )


class TestComplaintRoundTrip:
    def _populated_backend(self):
        backend = ComplaintTrustBackend(
            tolerance_factor=3.0, trust_scale=2.0, metric_mode="balanced"
        )
        backend.update_many(_observations())
        backend.file_complaint(
            Complaint(complainant_id="mallory", accused_id="bob", timestamp=6.0)
        )
        return backend

    def test_round_trip_preserves_scores_counts_and_store(self):
        backend = self._populated_backend()
        restored = ComplaintTrustBackend()
        restored.restore(backend.snapshot())
        assert restored.metric_mode == backend.metric_mode
        assert restored.tolerance_factor == backend.tolerance_factor
        assert np.allclose(
            restored.scores_for(SUBJECTS), backend.scores_for(SUBJECTS)
        )
        assert sorted(restored.known_subjects()) == sorted(backend.known_subjects())
        for subject in SUBJECTS:
            assert restored.counts(subject) == backend.counts(subject)
            assert restored.trustworthy(subject) == backend.trustworthy(subject)
        # The complaint log itself round-trips, in filing order.
        assert restored.all_complaints() == backend.all_complaints()

    def test_restored_backend_accepts_new_complaints(self):
        backend = self._populated_backend()
        restored = ComplaintTrustBackend()
        restored.restore(backend.snapshot())
        complaint = Complaint(
            complainant_id="erin", accused_id="carol", timestamp=7.0
        )
        backend.file_complaint(complaint)
        restored.file_complaint(complaint)
        assert np.allclose(
            restored.scores_for(SUBJECTS), backend.scores_for(SUBJECTS)
        )


class TestSnapshotSafety:
    def test_cross_backend_restore_rejected(self):
        beta = BetaTrustBackend()
        beta.update_many(_observations())
        decay = DecayTrustBackend()
        with pytest.raises(TrustModelError):
            decay.restore(beta.snapshot())

    def test_missing_backend_tag_rejected(self):
        backend = BetaTrustBackend()
        state = backend.snapshot()
        del state["backend"]
        with pytest.raises(TrustModelError):
            BetaTrustBackend().restore(state)

    @pytest.mark.parametrize("length", ("short", "one", "long"))
    @pytest.mark.parametrize("kind", ("beta", "decay", "complaint"))
    def test_column_length_mismatch_rejected(self, kind, length):
        """Every evidence column must hold one row per peer id.

        A length-1 column would otherwise broadcast to every row, and a
        longer one would be truncated or fail deep inside numpy.
        """
        source = create_backend(kind)
        source.update_many(_observations())
        rows = len(source.snapshot()["peer_ids"])
        assert rows > 2
        cut = {"short": rows - 1, "one": 1, "long": rows + 1}[length]
        for column in source.COLUMNS:
            state = source.snapshot()
            state[column] = np.resize(state[column], cut)
            target = create_backend(kind)
            with pytest.raises(TrustModelError, match=repr(column)):
                target.restore(state)
            assert target.known_subjects() == ()

    @pytest.mark.parametrize("kind", ("beta", "decay", "complaint"))
    def test_duplicate_peer_ids_rejected(self, kind):
        backend = create_backend(kind)
        state = backend.snapshot()
        state["peer_ids"] = np.array(["bob", "bob"], dtype=object)
        for column in backend.COLUMNS:
            state[column] = np.zeros(2, dtype=state[column].dtype)
        with pytest.raises(TrustModelError, match="distinct peer id"):
            backend.restore(state)

    def test_empty_backend_round_trips(self):
        for factory in (BetaTrustBackend, DecayTrustBackend):
            restored = factory()
            restored.restore(factory().snapshot())
            assert restored.known_subjects() == ()
            assert restored.score("nobody") == pytest.approx(0.5)
        restored = ComplaintTrustBackend()
        restored.restore(ComplaintTrustBackend().snapshot())
        assert restored.score("nobody") == pytest.approx(1.0)


class TestSnapshotFormat:
    """The per-backend snapshot layout is a stable on-disk format.

    Key order and dtypes (canonical float64/int64/bool columns) are pinned
    for every kind, and a manifest spelled out key by key restores and
    answers the hand-computed scores.
    """

    LAYOUTS = {
        "beta": [
            ("backend", "<U4"),
            ("peer_ids", "object"),
            ("prior", "float64"),
            ("alpha", "float64"),
            ("beta", "float64"),
            ("count", "int64"),
        ],
        "decay": [
            ("backend", "<U5"),
            ("peer_ids", "object"),
            ("prior", "float64"),
            ("half_life", "float64"),
            ("alpha", "float64"),
            ("beta", "float64"),
            ("ref", "float64"),
            ("count", "int64"),
        ],
        "complaint": [
            ("backend", "<U9"),
            ("peer_ids", "object"),
            ("config", "float64"),
            ("metric_mode", "<U7"),
            ("received", "float64"),
            ("filed", "float64"),
            ("in_store", "bool"),
            ("complainants", "object"),
            ("accused", "object"),
            ("timestamps", "float64"),
        ],
    }

    @pytest.mark.parametrize("kind", ("beta", "decay", "complaint"))
    def test_key_order_and_dtypes_are_pinned(self, kind):
        backend = create_backend(kind)
        backend.update_many(_observations())
        items = [(key, str(value.dtype)) for key, value in backend.snapshot_items()]
        assert items == self.LAYOUTS[kind]
        assert list(backend.snapshot()) == [key for key, _ in self.LAYOUTS[kind]]
        state = backend.snapshot()
        rows = len(state["peer_ids"])
        for key in ("alpha", "beta", "ref", "count", "received", "filed", "in_store"):
            if key in state:
                assert state[key].shape == (rows,), key

    @staticmethod
    def _assert_same_state(actual, expected):
        assert list(actual) == list(expected)
        for key, value in expected.items():
            assert actual[key].dtype == value.dtype, key
            assert np.array_equal(actual[key], value), key

    def test_handwritten_beta_manifest_restores(self):
        state = {
            "backend": np.array("beta"),
            "peer_ids": np.array(["bob", "carol"], dtype=object),
            "prior": np.array([2.0, 1.0]),
            "alpha": np.array([3.0, 0.0]),
            "beta": np.array([1.0, 2.0]),
            "count": np.array([2, 1], dtype=np.int64),
        }
        backend = create_backend("beta")
        backend.restore(state)
        assert backend.known_subjects() == ("bob", "carol")
        assert backend.prior == BetaBelief(2.0, 1.0)
        assert backend.scores_for(("bob", "carol", "stranger")).tolist() == [
            5.0 / 7.0, 2.0 / 5.0, 2.0 / 3.0
        ]
        assert backend.observation_count("bob") == 2
        assert backend.observation_count("stranger") == 0
        self._assert_same_state(backend.snapshot(), state)

    def test_handwritten_decay_manifest_restores(self):
        state = {
            "backend": np.array("decay"),
            "peer_ids": np.array(["bob"], dtype=object),
            "prior": np.array([1.0, 1.0]),
            "half_life": np.array([10.0]),
            "alpha": np.array([4.0]),
            "beta": np.array([0.0]),
            "ref": np.array([5.0]),
            "count": np.array([1], dtype=np.int64),
        }
        backend = create_backend("decay")
        backend.restore(state)
        assert backend.half_life == 10.0
        # One half-life after the reference time the evidence halves.
        assert backend.score("bob", now=15.0) == 3.0 / 4.0
        assert backend.score("bob") == 5.0 / 6.0
        assert backend.belief("bob", now=15.0) == BetaBelief(3.0, 1.0)
        self._assert_same_state(backend.snapshot(), state)
        backend.update(TrustObservation("alice", "bob", False, timestamp=15.0))
        assert backend.belief("bob", now=15.0) == BetaBelief(3.0, 2.0)
        assert backend.observation_count("bob") == 2

    def test_handwritten_complaint_manifest_restores(self):
        log = [("victim", "cheat", 1.0), ("cheat", "victim", 2.0),
               ("victim", "cheat", 3.0)]
        state = {
            "backend": np.array("complaint"),
            "peer_ids": np.array(["cheat", "victim"], dtype=object),
            "config": np.array([4.0, 3.0]),
            "metric_mode": np.array("product"),
            "received": np.array([2.0, 1.0]),
            "filed": np.array([1.0, 2.0]),
            "in_store": np.array([True, True]),
            "complainants": np.array([c for c, _, _ in log], dtype=object),
            "accused": np.array([a for _, a, _ in log], dtype=object),
            "timestamps": np.array([t for _, _, t in log]),
        }
        backend = create_backend("complaint")
        backend.restore(state)
        assert backend.counts("cheat") == (2, 1)
        assert backend.counts("victim") == (1, 2)
        assert backend.all_complaints() == tuple(
            Complaint(complainant_id=c, accused_id=a, timestamp=t) for c, a, t in log
        )
        # Both metrics are 2, so the median reference is 2 and the trust
        # scale is 3 * 2.
        assert backend.reference_metric() == 2.0
        assert backend.score("cheat") == float(np.exp(-2.0 / 6.0))
        assert backend.score("stranger") == 1.0
        self._assert_same_state(backend.snapshot(), state)
