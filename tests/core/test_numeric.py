"""Unit tests for the numeric helpers."""

import pytest

from repro.core.numeric import (
    EPSILON,
    approx_eq,
    approx_ge,
    approx_le,
    approx_lt,
    non_negative,
    total,
)


class TestComparisons:
    def test_approx_le(self):
        assert approx_le(1.0, 1.0)
        assert approx_le(1.0, 1.0 + EPSILON / 2)
        assert approx_le(1.0 + EPSILON / 2, 1.0)
        assert not approx_le(1.1, 1.0)

    def test_approx_ge(self):
        assert approx_ge(1.0, 1.0)
        assert approx_ge(1.0 - EPSILON / 2, 1.0)
        assert not approx_ge(0.9, 1.0)

    def test_approx_eq(self):
        assert approx_eq(1.0, 1.0 + EPSILON / 2)
        assert not approx_eq(1.0, 1.01)

    def test_approx_lt_strict(self):
        assert approx_lt(0.9, 1.0)
        assert not approx_lt(1.0, 1.0)
        assert not approx_lt(1.0 - EPSILON / 2, 1.0)

    def test_custom_epsilon(self):
        assert approx_le(1.05, 1.0, eps=0.1)
        assert not approx_le(1.05, 1.0, eps=0.01)


class TestNonNegative:
    def test_snaps_tiny_negative(self):
        assert non_negative(-EPSILON / 2) == 0.0

    def test_keeps_real_values(self):
        assert non_negative(-1.0) == -1.0
        assert non_negative(2.0) == 2.0


class TestTotal:
    def test_sums_iterables(self):
        assert total([1.0, 2.0, 3.0]) == pytest.approx(6.0)
        assert total(x for x in (0.5, 0.5)) == pytest.approx(1.0)
        assert total([]) == 0.0
