"""Property tests for batched witness aggregation.

The batched ``aggregate_witness_reports`` path must agree with the scalar
reference (``combine_beta_evidence`` folding one report at a time) on
identical report sets — including the degenerate cases the evidence plane
actually produces: zero-trust witnesses, uninformed witnesses (uniform-prior
rows), and empty report lists.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TrustModelError
from repro.trust.aggregation import (
    WitnessReport,
    combine_beta_evidence,
    combine_beta_evidence_matrix,
    stack_witness_beliefs,
    validate_witness_matrix,
    witness_report_sums,
)
from repro.trust.backend import (
    BetaTrustBackend,
    ComplaintTrustBackend,
    DecayTrustBackend,
    ScalarBetaBackendAdapter,
    TrustObservation,
)
from repro.trust.beta import BetaBelief

SUBJECTS = ("s0", "s1", "s2")

# One witness row: per-subject (alpha-1, beta-1) evidence counts (0 == the
# uniform prior, i.e. "nothing to report") plus the witness discount.
witness_rows = st.tuples(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        ),
        min_size=len(SUBJECTS),
        max_size=len(SUBJECTS),
    ),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

witness_sets = st.lists(witness_rows, min_size=0, max_size=8)

direct_evidence = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(SUBJECTS) - 1),
        st.booleans(),
        st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    ),
    min_size=0,
    max_size=30,
)


def _matrix_from(witnesses):
    matrix = np.ones((len(witnesses), len(SUBJECTS), 2))
    discounts = np.zeros(len(witnesses))
    for row, (cells, discount) in enumerate(witnesses):
        for column, (extra_alpha, extra_beta) in enumerate(cells):
            matrix[row, column, 0] = 1.0 + extra_alpha
            matrix[row, column, 1] = 1.0 + extra_beta
        discounts[row] = discount
    return matrix, discounts


def _reports_for_subject(matrix, discounts, column):
    return [
        WitnessReport(
            witness_id=f"w{row}",
            belief=BetaBelief(
                float(matrix[row, column, 0]), float(matrix[row, column, 1])
            ),
            witness_trust=float(discounts[row]),
        )
        for row in range(matrix.shape[0])
    ]


def _backend_with(observations, factory):
    backend = factory()
    backend.update_many(observations)
    return backend


def _observations(stream):
    return [
        TrustObservation(
            observer_id="self",
            subject_id=SUBJECTS[subject],
            honest=honest,
            weight=weight,
        )
        for subject, honest, weight in stream
    ]


class TestBatchedAgainstScalar:
    @settings(max_examples=80, deadline=None)
    @given(stream=direct_evidence, witnesses=witness_sets)
    def test_beta_backend_matches_scalar_reference(self, stream, witnesses):
        observations = _observations(stream)
        matrix, discounts = _matrix_from(witnesses)
        backend = _backend_with(observations, BetaTrustBackend)
        scalar = _backend_with(observations, ScalarBetaBackendAdapter)

        batched = backend.aggregate_witness_reports(SUBJECTS, matrix, discounts)
        reference = scalar.aggregate_witness_reports(SUBJECTS, matrix, discounts)
        assert np.allclose(batched, reference, atol=1e-12)

        # ... and both equal folding combine_beta_evidence by hand.
        for column, subject in enumerate(SUBJECTS):
            combined = combine_beta_evidence(
                backend.belief(subject),
                _reports_for_subject(matrix, discounts, column),
            )
            assert batched[column] == pytest.approx(combined.mean, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(stream=direct_evidence, witnesses=witness_sets)
    def test_decay_backend_matches_scalar_merge(self, stream, witnesses):
        observations = _observations(stream)
        matrix, discounts = _matrix_from(witnesses)
        backend = _backend_with(
            observations, lambda: DecayTrustBackend(half_life=50.0)
        )
        batched = backend.aggregate_witness_reports(
            SUBJECTS, matrix, discounts, now=10.0
        )
        for column, subject in enumerate(SUBJECTS):
            combined = combine_beta_evidence(
                backend.belief(subject, now=10.0),
                _reports_for_subject(matrix, discounts, column),
            )
            assert batched[column] == pytest.approx(combined.mean, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(stream=direct_evidence, witnesses=witness_sets)
    def test_zero_trust_witnesses_contribute_nothing(self, stream, witnesses):
        observations = _observations(stream)
        matrix, _ = _matrix_from(witnesses)
        discounts = np.zeros(matrix.shape[0])
        backend = _backend_with(observations, BetaTrustBackend)
        batched = backend.aggregate_witness_reports(SUBJECTS, matrix, discounts)
        assert np.allclose(batched, backend.scores_for(SUBJECTS), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(stream=direct_evidence)
    def test_empty_report_list_equals_direct_scores(self, stream):
        observations = _observations(stream)
        empty = np.zeros((0, len(SUBJECTS), 2))
        no_discounts = np.zeros(0)
        for factory in (
            BetaTrustBackend,
            lambda: DecayTrustBackend(half_life=50.0),
            ScalarBetaBackendAdapter,
        ):
            backend = _backend_with(observations, factory)
            batched = backend.aggregate_witness_reports(
                SUBJECTS, empty, no_discounts
            )
            assert np.allclose(batched, backend.scores_for(SUBJECTS), atol=1e-12)

    def test_uninformed_witness_rows_are_inert(self):
        backend = BetaTrustBackend()
        backend.update(TrustObservation("self", "s0", True, weight=5.0))
        informative = stack_witness_beliefs([[BetaBelief(9.0, 1.0), None, None]])
        padded = stack_witness_beliefs(
            [
                [BetaBelief(9.0, 1.0), None, None],
                [None, None, None],  # witness with nothing to report
            ]
        )
        lone = backend.aggregate_witness_reports(
            SUBJECTS, informative, np.array([0.5])
        )
        with_padding = backend.aggregate_witness_reports(
            SUBJECTS, padded, np.array([0.5, 1.0])
        )
        assert np.allclose(lone, with_padding, atol=1e-12)


class TestComplaintAggregation:
    def test_trusted_reports_accumulate_as_discounted_sums(self):
        backend = ComplaintTrustBackend(metric_mode="product")
        single = np.array([[[6.0, 2.0], [0.0, 0.0]]])
        repeated = np.repeat(single, 5, axis=0)
        one = backend.aggregate_witness_reports(("a", "b"), single, np.ones(1))
        many = backend.aggregate_witness_reports(("a", "b"), repeated, np.ones(5))
        # A clean record scores above a complaint-laden one, and each
        # additional trusted negative report only lowers the estimate.
        assert one[1] > one[0]
        assert many[0] < one[0]
        assert many[1] == pytest.approx(one[1])
        # Halving the discount halves a report's count contribution.
        halved = backend.aggregate_witness_reports(
            ("a", "b"), single, np.array([0.5])
        )
        doubled = np.array([[[3.0, 1.0], [0.0, 0.0]]])
        assert halved[0] == pytest.approx(
            backend.aggregate_witness_reports(("a", "b"), doubled, np.ones(1))[0]
        )

    def test_reports_cannot_whitewash_own_complaints(self):
        backend = ComplaintTrustBackend(metric_mode="received")
        for _ in range(50):
            backend.update(
                TrustObservation("victim", "bad", honest=False, timestamp=0.0)
            )
        direct = backend.scores_for(("bad",))
        # A barely-trusted witness claiming a clean record must not lift the
        # estimate above what the backend's own counters say.
        innocent_claim = np.array([[[0.0, 0.0]]])
        scores = backend.aggregate_witness_reports(
            ("bad",), innocent_claim, np.array([0.01])
        )
        assert scores[0] == pytest.approx(direct[0], abs=1e-12)
        fully_trusted = backend.aggregate_witness_reports(
            ("bad",), innocent_claim, np.ones(1)
        )
        assert fully_trusted[0] <= direct[0] + 1e-12

    def test_distrusted_witnesses_barely_move_the_result(self):
        backend = ComplaintTrustBackend(metric_mode="product")
        honest_report = np.array([[[0.0, 0.0]]])
        smear = np.array([[[0.0, 0.0]], [[50.0, 50.0]]])
        clean = backend.aggregate_witness_reports(("a",), honest_report, np.ones(1))
        smeared = backend.aggregate_witness_reports(
            ("a",), smear, np.array([1.0, 0.001])
        )
        assert smeared[0] == pytest.approx(clean[0], abs=0.05)
        # A fully trusted smear, by contrast, tanks the score.
        trusted_smear = backend.aggregate_witness_reports(
            ("a",), smear, np.array([1.0, 1.0])
        )
        assert trusted_smear[0] < 0.5 * clean[0]

    def test_zero_trust_witnesses_leave_own_counters(self):
        backend = ComplaintTrustBackend(metric_mode="product")
        backend.update(TrustObservation("x", "a", honest=False, timestamp=0.0))
        matrix = np.array([[[50.0, 50.0]]])
        scores = backend.aggregate_witness_reports(("a",), matrix, np.zeros(1))
        assert np.allclose(scores, backend.scores_for(("a",)), atol=1e-12)
        empty = backend.aggregate_witness_reports(
            ("a",), np.zeros((0, 1, 2)), np.zeros(0)
        )
        assert np.allclose(empty, backend.scores_for(("a",)), atol=1e-12)

    def test_negative_counts_rejected(self):
        backend = ComplaintTrustBackend()
        with pytest.raises(TrustModelError):
            backend.aggregate_witness_reports(
                ("a",), np.array([[[-1.0, 0.0]]]), np.ones(1)
            )


class TestMatrixHelpers:
    def test_stacked_reports_match_scalar_combination(self):
        reports = [
            WitnessReport("w0", BetaBelief(4.0, 2.0), witness_trust=0.5),
            WitnessReport("w1", BetaBelief(1.0, 9.0), witness_trust=1.0),
        ]
        matrix = stack_witness_beliefs([[report.belief] for report in reports])
        discounts = np.array([report.witness_trust for report in reports])
        assert matrix.shape == (2, 1, 2)
        alpha, beta = combine_beta_evidence_matrix(
            np.array([1.0]), np.array([1.0]), matrix, discounts
        )
        combined = combine_beta_evidence(BetaBelief(1.0, 1.0), reports)
        assert alpha[0] == pytest.approx(combined.alpha)
        assert beta[0] == pytest.approx(combined.beta)

    def test_shape_validation(self):
        with pytest.raises(TrustModelError):
            validate_witness_matrix(2, np.ones((1, 3, 2)), np.ones(1))
        with pytest.raises(TrustModelError):
            validate_witness_matrix(3, np.ones((1, 3, 3)), np.ones(1))
        with pytest.raises(TrustModelError):
            validate_witness_matrix(3, np.ones((2, 3, 2)), np.ones(3))
        with pytest.raises(TrustModelError):
            validate_witness_matrix(1, np.ones((1, 1, 2)), np.array([1.5]))


class TestReportSums:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        witness_count=st.integers(min_value=0, max_value=8),
    )
    def test_sums_match_a_per_witness_loop(self, seed, witness_count):
        """Evidence sums drop the (1, 1) prior; raw sums keep every count."""
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(1.0, 20.0, size=(witness_count, 3, 2))
        matrix[rng.random((witness_count, 3)) < 0.4] = 1.0
        discounts = rng.random(witness_count)
        evidence = np.zeros((3, 2))
        raw = np.zeros((3, 2))
        for row, discount in zip(matrix, discounts):
            evidence += discount * np.maximum(row - 1.0, 0.0)
            raw += discount * row
        np.testing.assert_allclose(
            witness_report_sums(matrix, discounts, evidence=True), evidence
        )
        np.testing.assert_allclose(
            witness_report_sums(matrix, discounts, evidence=False), raw
        )

    def test_uniform_prior_rows_carry_no_evidence(self):
        sums = witness_report_sums(np.ones((4, 2, 2)), np.ones(4), evidence=True)
        assert np.array_equal(sums, np.zeros((2, 2)))

    def test_count_rule_accepts_zero_reports_beta_rule_does_not(self):
        zeros = np.zeros((2, 1, 2))
        matrix, discounts = validate_witness_matrix(
            1, zeros, np.ones(2), positive=False
        )
        assert matrix.dtype == np.float64 and discounts.dtype == np.float64
        with pytest.raises(TrustModelError, match="positive"):
            validate_witness_matrix(1, zeros, np.ones(2))

    def test_empty_witness_set_is_valid(self):
        matrix, discounts = validate_witness_matrix(3, np.zeros((0, 3, 2)), [])
        assert matrix.shape == (0, 3, 2) and discounts.shape == (0,)
        assert np.array_equal(
            witness_report_sums(matrix, discounts), np.zeros((3, 2))
        )
