"""Unit tests for evidence decay models."""

import pytest

from repro.exceptions import TrustModelError
from repro.trust.decay import ExponentialDecay, NoDecay


class TestNoDecay:
    def test_always_one(self):
        decay = NoDecay()
        assert decay.weight(0.0) == 1.0
        assert decay.weight(1e6) == 1.0

    def test_negative_age_rejected(self):
        with pytest.raises(TrustModelError):
            NoDecay().weight(-1.0)


class TestExponentialDecay:
    def test_half_life(self):
        decay = ExponentialDecay(half_life=10.0)
        assert decay.weight(0.0) == pytest.approx(1.0)
        assert decay.weight(10.0) == pytest.approx(0.5)
        assert decay.weight(20.0) == pytest.approx(0.25)

    def test_monotone_decreasing(self):
        decay = ExponentialDecay(half_life=5.0)
        weights = [decay.weight(age) for age in (0.0, 1.0, 5.0, 20.0)]
        assert weights == sorted(weights, reverse=True)

    def test_weight_at(self):
        decay = ExponentialDecay(half_life=10.0)
        assert decay.weight_at(event_time=0.0, now=10.0) == pytest.approx(0.5)
        # Events "from the future" get full weight (age clamped at zero).
        assert decay.weight_at(event_time=20.0, now=10.0) == pytest.approx(1.0)

    def test_invalid_half_life(self):
        with pytest.raises(TrustModelError):
            ExponentialDecay(half_life=0.0)
