"""Tests for the pluggable trust-backend layer.

The property-style agreement tests are the regression guard for the backend
refactor: on identical observation streams every vectorized backend must
produce the same trust estimates as the scalar model it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TrustModelError
from repro.trust.backend import (
    BACKEND_NAMES,
    BetaTrustBackend,
    ComplaintTrustBackend,
    DecayTrustBackend,
    ScalarBetaBackendAdapter,
    TrustBackend,
    TrustObservation,
    backend_names,
    create_backend,
    register_backend,
)
from repro.trust.beta import BetaTrustModel
from repro.trust.complaint import ComplaintTrustModel, LocalComplaintStore
from repro.trust.decay import ExponentialDecay
from repro.trust.evidence import Complaint

SUBJECTS = tuple(f"s{i}" for i in range(5))

# One observation: (subject index, honest, weight, timestamp).
observation_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(SUBJECTS) - 1),
        st.booleans(),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    ),
    min_size=0,
    max_size=60,
)


def _to_observations(stream):
    return [
        TrustObservation(
            observer_id="observer",
            subject_id=SUBJECTS[subject],
            honest=honest,
            timestamp=timestamp,
            weight=weight,
        )
        for subject, honest, weight, timestamp in stream
    ]


class TestBetaAgreement:
    @settings(max_examples=60, deadline=None)
    @given(stream=observation_streams)
    def test_matches_scalar_beta_model(self, stream):
        observations = _to_observations(stream)
        backend = BetaTrustBackend()
        backend.update_many(observations)
        scalar = BetaTrustModel()
        for observation in observations:
            scalar.record_outcome(
                observation.subject_id,
                observation.honest,
                observation.observer_id,
                observation.timestamp,
                observation.weight,
            )
        for subject in SUBJECTS + ("stranger",):
            assert backend.score(subject) == pytest.approx(
                scalar.trust(subject), rel=1e-9
            )
            belief = backend.belief(subject)
            reference = scalar.belief(subject)
            assert belief.alpha == pytest.approx(reference.alpha, rel=1e-9)
            assert belief.beta == pytest.approx(reference.beta, rel=1e-9)

    def test_update_equals_update_many(self):
        observations = _to_observations(
            [(i % len(SUBJECTS), i % 3 != 0, 1.0 + i, float(i)) for i in range(30)]
        )
        one_by_one = BetaTrustBackend()
        for observation in observations:
            one_by_one.update(observation)
        batched = BetaTrustBackend()
        batched.update_many(observations)
        assert np.allclose(
            one_by_one.scores_for(SUBJECTS), batched.scores_for(SUBJECTS)
        )

    def test_unknown_subject_gets_prior(self):
        backend = BetaTrustBackend(prior_alpha=2.0, prior_beta=2.0)
        assert backend.score("nobody") == pytest.approx(0.5)
        assert backend.observation_count("nobody") == 0

    def test_scores_vector_alignment(self):
        backend = BetaTrustBackend()
        backend.update(TrustObservation("o", "good", True, weight=10.0))
        backend.update(TrustObservation("o", "bad", False, weight=10.0))
        scores = backend.scores_for(("good", "unknown", "bad"))
        assert scores[0] > scores[1] > scores[2]

    def test_snapshot_covers_known_subjects(self):
        backend = BetaTrustBackend()
        backend.update_many(
            [
                TrustObservation("o", "a", True),
                TrustObservation("o", "b", False),
            ]
        )
        snapshot = backend.scores_snapshot()
        assert set(snapshot) == {"a", "b"}
        assert snapshot["a"] > snapshot["b"]


class TestDecayAgreement:
    @settings(max_examples=60, deadline=None)
    @given(
        stream=observation_streams,
        half_life=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    )
    def test_matches_scalar_beta_with_exponential_decay(self, stream, half_life):
        observations = _to_observations(stream)
        backend = DecayTrustBackend(half_life=half_life)
        backend.update_many(observations)
        scalar = BetaTrustModel(decay=ExponentialDecay(half_life=half_life))
        for observation in observations:
            scalar.record_outcome(
                observation.subject_id,
                observation.honest,
                observation.observer_id,
                observation.timestamp,
                observation.weight,
            )
        # Query at a "now" at or after every recorded timestamp, where the
        # online renormalisation is exactly the scalar per-observation decay.
        now = max((o.timestamp for o in observations), default=0.0) + 10.0
        for subject in SUBJECTS + ("stranger",):
            assert backend.score(subject, now=now) == pytest.approx(
                scalar.trust(subject, now=now), rel=1e-9, abs=1e-12
            )

    def test_out_of_order_timestamps_are_exact(self):
        early = TrustObservation("o", "s0", True, timestamp=0.0, weight=4.0)
        late = TrustObservation("o", "s0", False, timestamp=100.0, weight=4.0)
        in_order = DecayTrustBackend(half_life=50.0)
        in_order.update_many([early, late])
        reversed_order = DecayTrustBackend(half_life=50.0)
        reversed_order.update_many([late, early])
        assert in_order.score("s0", now=120.0) == pytest.approx(
            reversed_order.score("s0", now=120.0), rel=1e-12
        )

    def test_old_evidence_fades(self):
        backend = DecayTrustBackend(half_life=10.0)
        backend.update(TrustObservation("o", "s0", False, timestamp=0.0, weight=50.0))
        distrusted = backend.score("s0", now=0.0)
        forgotten = backend.score("s0", now=500.0)
        assert distrusted < 0.1
        assert forgotten == pytest.approx(0.5, abs=0.01)


class TestComplaintAgreement:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=0,
            max_size=60,
        ),
        metric_mode=st.sampled_from(ComplaintTrustBackend.METRIC_MODES),
    )
    def test_matches_scalar_complaint_model(self, pairs, metric_mode):
        agents = tuple(f"a{i}" for i in range(5))
        backend = ComplaintTrustBackend(metric_mode=metric_mode)
        scalar = ComplaintTrustModel(
            store=LocalComplaintStore(), metric_mode=metric_mode
        )
        observations = []
        for complainant, accused in pairs:
            if complainant == accused:
                continue
            observations.append(
                TrustObservation(
                    observer_id=agents[complainant],
                    subject_id=agents[accused],
                    honest=False,
                )
            )
            scalar.file_complaint(agents[complainant], agents[accused])
        backend.update_many(observations)
        assert backend.reference_metric() == pytest.approx(
            scalar.reference_metric(), rel=1e-9
        )
        for agent in agents + ("stranger",):
            assert backend.score(agent) == pytest.approx(
                scalar.trust(agent), rel=1e-9
            )
            assert backend.trustworthy(agent) == scalar.is_trustworthy(agent)

    def test_false_complaints_are_filed_for_honest_outcomes(self):
        # Balanced mode: the faithful product metric needs the victim to have
        # *filed* complaints too, so a lone false complaint would not show.
        backend = ComplaintTrustBackend(metric_mode="balanced")
        backend.update(
            TrustObservation("liar", "victim", honest=True, files_complaint=True)
        )
        assert backend.all_complaints() == (Complaint("liar", "victim"),)
        assert backend.score("victim") < 1.0

    def test_honest_observations_file_nothing(self):
        backend = ComplaintTrustBackend()
        backend.update(TrustObservation("o", "partner", honest=True))
        assert backend.all_complaints() == ()
        assert backend.score("partner") == pytest.approx(1.0)

    def test_shared_backend_is_one_community_store(self):
        shared = ComplaintTrustBackend(metric_mode="balanced")
        shared.update(TrustObservation("alice", "bob", honest=False))
        # A second consumer of the same instance sees the complaint without
        # any rebuild.
        assert [c.complainant_id for c in shared.all_complaints()] == ["alice"]
        assert shared.score("bob") < 1.0


class TestScalarAdapter:
    def test_adapter_exposes_model_through_backend_interface(self):
        adapter = ScalarBetaBackendAdapter()
        adapter.update_many(
            [
                TrustObservation("o", "x", True, weight=3.0),
                TrustObservation("o", "x", False, weight=1.0),
            ]
        )
        assert isinstance(adapter.model, BetaTrustModel)
        assert adapter.score("x") == pytest.approx(adapter.model.trust("x"))
        assert adapter.known_subjects() == ("x",)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(BACKEND_NAMES) <= set(backend_names())

    def test_create_backend_round_trip(self):
        for name, expected in (
            ("beta", BetaTrustBackend),
            ("complaint", ComplaintTrustBackend),
            ("decay", DecayTrustBackend),
        ):
            backend = create_backend(name)
            assert isinstance(backend, expected)
            assert isinstance(backend, TrustBackend)

    def test_create_backend_with_params(self):
        backend = create_backend("decay", half_life=7.0)
        assert backend.half_life == 7.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(TrustModelError):
            create_backend("tarot")

    @pytest.mark.parametrize(
        "kind,shards",
        (("beta", 1), ("decay", 1), ("complaint", 1), ("complaint", 2)),
    )
    def test_removed_cache_scores_option_is_rejected(self, kind, shards):
        """The score cache is always on; there is no knob left to pass."""
        with pytest.raises(TypeError, match="cache_scores"):
            create_backend(kind, shards=shards, cache_scores=True)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(TrustModelError):
            register_backend("beta", BetaTrustBackend)

    def test_replace_registration_allowed(self):
        register_backend("beta", BetaTrustBackend, replace=True)
        assert isinstance(create_backend("beta"), BetaTrustBackend)


class TestObservationValidation:
    def test_empty_ids_rejected(self):
        with pytest.raises(TrustModelError):
            TrustObservation("", "x", True)
        with pytest.raises(TrustModelError):
            TrustObservation("x", "", True)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(TrustModelError):
            TrustObservation("a", "b", True, weight=0.0)

    def test_complaint_default_tracks_honesty(self):
        assert TrustObservation("a", "b", honest=False).complaint_filed
        assert not TrustObservation("a", "b", honest=True).complaint_filed
