"""Unit tests for trust evidence aggregation."""

import pytest

from repro.exceptions import TrustModelError
from repro.trust.aggregation import (
    WitnessReport,
    combine_beta_evidence,
)
from repro.trust.beta import BetaBelief


class TestWitnessReport:
    def test_valid_report(self):
        report = WitnessReport("w1", BetaBelief(5.0, 1.0), witness_trust=0.8)
        assert report.witness_id == "w1"

    def test_invalid_witness_trust(self):
        with pytest.raises(TrustModelError):
            WitnessReport("w1", BetaBelief(5.0, 1.0), witness_trust=1.5)


class TestCombineBetaEvidence:
    def test_trusted_witnesses_shift_belief(self):
        direct = BetaBelief(1.0, 1.0)
        reports = [
            WitnessReport("w1", BetaBelief(11.0, 1.0), witness_trust=1.0),
            WitnessReport("w2", BetaBelief(6.0, 1.0), witness_trust=1.0),
        ]
        combined = combine_beta_evidence(direct, reports)
        assert combined.mean > 0.85

    def test_untrusted_witnesses_ignored(self):
        direct = BetaBelief(1.0, 1.0)
        reports = [WitnessReport("w1", BetaBelief(1.0, 21.0), witness_trust=0.0)]
        combined = combine_beta_evidence(direct, reports)
        assert combined.mean == pytest.approx(direct.mean)

    def test_discount_interpolates(self):
        direct = BetaBelief(1.0, 1.0)
        strong_report = BetaBelief(21.0, 1.0)
        full = combine_beta_evidence(
            direct, [WitnessReport("w", strong_report, witness_trust=1.0)]
        )
        half = combine_beta_evidence(
            direct, [WitnessReport("w", strong_report, witness_trust=0.5)]
        )
        assert direct.mean < half.mean < full.mean

    def test_no_reports_returns_direct(self):
        direct = BetaBelief(3.0, 2.0)
        assert combine_beta_evidence(direct, []).mean == pytest.approx(direct.mean)
