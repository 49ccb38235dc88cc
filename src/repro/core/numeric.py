"""Numeric helpers shared across the core exchange model.

All monetary quantities in the library are plain floats.  Planning and
safety checks repeatedly compare sums of item valuations, so a small absolute
tolerance is used consistently to avoid spurious infeasibility verdicts caused
by floating point rounding.
"""

from __future__ import annotations

import sys
from typing import Iterable

import numpy as np

#: Absolute tolerance used for all monetary comparisons in the core model.
EPSILON = 1e-9


def approx_le(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when ``a <= b`` up to the absolute tolerance ``eps``."""
    return a <= b + eps


def approx_ge(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when ``a >= b`` up to the absolute tolerance ``eps``."""
    return a >= b - eps


def approx_eq(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when ``a == b`` up to the absolute tolerance ``eps``."""
    return abs(a - b) <= eps


def approx_lt(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when ``a < b`` by more than the tolerance ``eps``."""
    return a < b - eps


def non_negative(value: float) -> float:
    """Snap tiny negative rounding artefacts to zero, keep real values."""
    if -EPSILON < value < 0.0:
        return 0.0
    return value


def total(values: Iterable[float]) -> float:
    """Sum ``values`` using :func:`math.fsum` semantics via built-in ``sum``.

    A thin wrapper so that the summation strategy can be changed in one place
    if numerically harder workloads ever require it.
    """
    return float(sum(values))


def sequential_total_rows(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """:func:`total` along ``axis``, as the built-in ``sum`` before Python 3.12.

    Each line of ``values`` along ``axis`` (the last by default) holds the
    summands of one total; the result drops that axis.  The summands are
    added in order from ``0.0``, one vectorised add per position, so each
    total rounds exactly as the plain float ``sum`` over its line does.
    ``np.sum`` would not: it adds in blocks of eight.  Summing along the
    first axis of a C-contiguous array reads contiguous memory.
    """
    summands = np.moveaxis(np.asarray(values, dtype=np.float64), axis, 0)
    result = np.zeros(summands.shape[1:])
    for summand in summands:
        result = result + summand
    return result


def compensated_total_rows(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """:func:`total` along ``axis``, as the compensated ``sum`` of Python 3.12.

    The vectorised form of Neumaier summation as CPython 3.12 runs it: a
    running compensation term is added to the result at the end, unless it
    is zero or not finite.
    """
    summands = np.moveaxis(np.asarray(values, dtype=np.float64), axis, 0)
    result = np.zeros(summands.shape[1:])
    compensation = np.zeros(summands.shape[1:])
    with np.errstate(invalid="ignore"):
        for summand in summands:
            step = result + summand
            compensation = compensation + np.where(
                np.abs(result) >= np.abs(summand),
                (result - step) + summand,
                (summand - step) + result,
            )
            result = step
    return np.where(
        (compensation != 0.0) & np.isfinite(compensation),
        result + compensation,
        result,
    )


#: Row-wise :func:`total`: the kernel that rounds as this interpreter's
#: built-in ``sum`` does.  Batched code that must agree bit for bit with a
#: scalar ``total`` calls this, so the two can be swapped together.
total_rows = (
    compensated_total_rows if sys.version_info >= (3, 12) else sequential_total_rows
)
