"""Unit tests for the numeric helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.numeric import (
    EPSILON,
    approx_eq,
    approx_ge,
    approx_le,
    approx_lt,
    compensated_total_rows,
    non_negative,
    sequential_total_rows,
    total,
)
from summation import (
    compensated_total,
    loop_compensated_total_rows,
    loop_sequential_total_rows,
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


class TestRowTotals:
    """The row kernels round as the scalar ``sum`` they stand in for."""

    ROWS = [
        [1e16, 1.0, -1e16],
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        [3.0, 1e-17, 1e-17, 1e-17, -3.0],
        [0.0, -0.0],
        [],
    ]

    def test_kernel_matches_this_interpreters_sum(self):
        from repro.core.numeric import total_rows

        for row in self.ROWS:
            [result] = total_rows(np.array([row], dtype=float).reshape(1, -1)).tolist()
            assert result.hex() == total(row).hex()

    def test_kernels_match_their_scalar_summations_row_by_row(self):
        from summation import compensated_total

        from repro.core.numeric import (
            compensated_total_rows,
            sequential_total_rows,
        )

        rng = np.random.default_rng(5)
        values = rng.choice([1e12, 1.0, 1e-9, 0.0], size=(40, 9)) * rng.normal(
            size=(40, 9)
        )
        sequential = sequential_total_rows(values).tolist()
        compensated = compensated_total_rows(values).tolist()
        for row, plain, neumaier in zip(values.tolist(), sequential, compensated):
            running = 0.0
            for value in row:
                running += value
            assert plain.hex() == running.hex()
            assert neumaier.hex() == compensated_total(row).hex()
        # The two summations do differ, so the oracles test both.
        assert sequential != compensated

    def test_kernel_sums_the_last_axis(self):
        from repro.core.numeric import total_rows

        values = np.arange(24, dtype=float).reshape(2, 3, 4)
        assert total_rows(values).shape == (2, 3)
        assert total_rows(values)[1, 2] == 20.0 + 21.0 + 22.0 + 23.0


#: Summands that exercise signed zeros, infinities, overflow and cancellation.
summands = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 1e16, -1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-10.0, max_value=10.0),
)


def _plain_sum(values):
    """The built-in ``sum`` before Python 3.12: left to right from 0.0."""
    result = 0.0
    for value in values:
        result += value
    return result


class TestAccumulateKernels:
    """The ``np.add.accumulate`` kernels equal the loop kernels they replaced
    and the scalar summations, bit for bit, on every line."""

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.integers(min_value=1, max_value=4).flatmap(
            lambda width: st.lists(
                st.lists(summands, min_size=width, max_size=width), max_size=6
            )
        )
    )
    def test_kernels_equal_the_loops_and_the_scalar_sums(self, lines):
        # Rows are lines of summands; the kernels total along axis 0.
        width = len(lines[0]) if lines else 1
        values = np.array(lines, dtype=np.float64).reshape(len(lines), width)
        with np.errstate(over="ignore", invalid="ignore"):
            sequential = sequential_total_rows(values, axis=0)
            compensated = compensated_total_rows(values, axis=0)
            running = np.add.accumulate(values, axis=0)
            reused = (
                sequential_total_rows(values, axis=0, running=running),
                compensated_total_rows(values, axis=0, running=running),
            )
            references = (
                loop_sequential_total_rows(values, axis=0),
                loop_compensated_total_rows(values, axis=0),
            )
        for column in range(width):
            line = values[:, column].tolist()
            expected = (_plain_sum(line), compensated_total(line))
            for kernel_results in ((sequential, compensated), reused, references):
                got = [float(result[column]) for result in kernel_results]
                assert [value.hex() for value in got] == [
                    value.hex() for value in expected
                ]

    @pytest.mark.parametrize("kernel", [sequential_total_rows, compensated_total_rows])
    def test_empty_and_negative_zero_lines(self, kernel):
        assert kernel(np.zeros((2, 0))).tolist() == [0.0, 0.0]
        [result] = kernel(np.array([[-0.0, -0.0]])).tolist()
        assert result.hex() == (0.0).hex()
        assert float(kernel(np.array([-0.0]))).hex() == (0.0).hex()
