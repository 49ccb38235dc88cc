"""Numeric helpers shared across the core exchange model.

All monetary quantities in the library are plain floats.  Planning and
safety checks repeatedly compare sums of item valuations, so a small absolute
tolerance is used consistently to avoid spurious infeasibility verdicts caused
by floating point rounding.
"""

from __future__ import annotations

from typing import Iterable

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
