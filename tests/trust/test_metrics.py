"""Unit tests for trust accuracy metrics."""

import pytest

from repro.exceptions import AnalysisError
from repro.trust.metrics import (
    classification_report,
    mean_absolute_error,
)


class TestErrorMetrics:
    def test_mean_absolute_error(self):
        estimates = {"a": 0.8, "b": 0.2}
        truths = {"a": 1.0, "b": 0.0}
        assert mean_absolute_error(estimates, truths) == pytest.approx(0.2)

    def test_perfect_estimates(self):
        estimates = {"a": 1.0, "b": 0.0}
        truths = {"a": 1.0, "b": 0.0}
        assert mean_absolute_error(estimates, truths) == 0.0

    def test_only_common_subjects_used(self):
        estimates = {"a": 0.5, "z": 0.9}
        truths = {"a": 0.5, "y": 0.1}
        assert mean_absolute_error(estimates, truths) == 0.0

    def test_disjoint_subjects_rejected(self):
        with pytest.raises(AnalysisError):
            mean_absolute_error({"a": 0.5}, {"b": 0.5})


class TestClassificationReport:
    def test_confusion_counts(self):
        estimates = {"h1": 0.9, "h2": 0.4, "d1": 0.8, "d2": 0.1}
        labels = {"h1": True, "h2": True, "d1": False, "d2": False}
        report = classification_report(estimates, labels, threshold=0.5)
        assert report.true_accepts == 1   # h1
        assert report.false_rejects == 1  # h2
        assert report.false_accepts == 1  # d1
        assert report.true_rejects == 1   # d2
        assert report.total == 4
        assert report.accuracy == pytest.approx(0.5)
        assert report.false_accept_rate == pytest.approx(0.5)
        assert report.false_reject_rate == pytest.approx(0.5)
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)

    def test_threshold_changes_decisions(self):
        estimates = {"a": 0.6, "b": 0.4}
        labels = {"a": True, "b": False}
        strict = classification_report(estimates, labels, threshold=0.7)
        assert strict.true_accepts == 0
        assert strict.false_rejects == 1
        lenient = classification_report(estimates, labels, threshold=0.3)
        assert lenient.false_accepts == 1

    def test_degenerate_rates_are_zero(self):
        estimates = {"a": 0.9}
        labels = {"a": True}
        report = classification_report(estimates, labels)
        assert report.false_accept_rate == 0.0
        assert report.precision == 1.0

    def test_invalid_threshold(self):
        with pytest.raises(AnalysisError):
            classification_report({"a": 0.5}, {"a": True}, threshold=1.5)

    def test_disjoint_subjects_rejected(self):
        with pytest.raises(AnalysisError):
            classification_report({"a": 0.5}, {"b": True})
