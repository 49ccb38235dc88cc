"""Unit tests for trust evidence primitives."""

import pytest

from repro.exceptions import TrustModelError
from repro.trust.evidence import (
    Complaint,
    InteractionOutcome,
    Observation,
)


class TestObservation:
    def test_honest_factory(self):
        observation = Observation.honest("a", "b", timestamp=3.0, weight=2.0)
        assert observation.is_honest
        assert observation.outcome is InteractionOutcome.HONEST
        assert observation.timestamp == 3.0
        assert observation.weight == 2.0

    def test_dishonest_factory(self):
        observation = Observation.dishonest("a", "b")
        assert not observation.is_honest

    def test_empty_ids_rejected(self):
        with pytest.raises(TrustModelError):
            Observation.honest("", "b")
        with pytest.raises(TrustModelError):
            Observation.honest("a", "")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(TrustModelError):
            Observation.honest("a", "b", weight=0.0)


class TestComplaint:
    def test_valid_complaint(self):
        complaint = Complaint(complainant_id="a", accused_id="b", timestamp=1.0)
        assert complaint.complainant_id == "a"
        assert complaint.accused_id == "b"

    def test_self_complaint_rejected(self):
        with pytest.raises(TrustModelError):
            Complaint(complainant_id="a", accused_id="a")

    def test_empty_ids_rejected(self):
        with pytest.raises(TrustModelError):
            Complaint(complainant_id="", accused_id="b")
