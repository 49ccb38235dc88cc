"""Numeric helpers shared across the core exchange model.

All monetary quantities in the library are plain floats.  Planning and
safety checks repeatedly compare sums of item valuations, so a small absolute
tolerance is used consistently to avoid spurious infeasibility verdicts caused
by floating point rounding.
"""

from __future__ import annotations

import sys
from typing import Iterable, Optional

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


def _lines(values: np.ndarray, axis: int) -> np.ndarray:
    """``values`` as float64 with ``axis`` moved to the front."""
    values = np.asarray(values, dtype=np.float64)
    return values if values.ndim == 1 else np.moveaxis(values, axis, 0)


def sequential_total_rows(
    values: np.ndarray, axis: int = -1, running: Optional[np.ndarray] = None
) -> np.ndarray:
    """:func:`total` along ``axis``, as the built-in ``sum`` before Python 3.12.

    Each line of ``values`` along ``axis`` (the last by default) holds the
    summands of one total; the result drops that axis.  The total is the
    last running sum of ``np.add.accumulate``, which adds in order, one
    vectorised add per position, so each total rounds exactly as the plain
    float ``sum`` over its line does (``np.sum`` would not: it adds in
    blocks of eight).  ``sum`` starts from ``0.0``, so ``+ 0.0`` turns a
    line of ``-0.0`` into its ``0.0``.  ``running``, when given, is that
    ``np.add.accumulate`` of ``values`` along ``axis``, and is reused.
    """
    summands = _lines(values, axis)
    if not len(summands):
        return np.zeros(summands.shape[1:])
    running = (
        np.add.accumulate(summands, axis=0)
        if running is None
        else _lines(running, axis)
    )
    return running[-1] + 0.0


def compensated_total_rows(
    values: np.ndarray, axis: int = -1, running: Optional[np.ndarray] = None
) -> np.ndarray:
    """:func:`total` along ``axis``, as the compensated ``sum`` of Python 3.12.

    Neumaier summation as CPython 3.12 runs it, vectorised: the running
    sums are one ``np.add.accumulate`` pass, each position's compensation
    increment is computed from the previous running sum, and the
    increments are accumulated in a second pass.  The compensation is added
    to the result unless it is zero or not finite.  ``running`` is as for
    :func:`sequential_total_rows`.
    """
    summands = _lines(values, axis)
    if not len(summands):
        return np.zeros(summands.shape[1:])
    running = (
        np.add.accumulate(summands, axis=0)
        if running is None
        else _lines(running, axis)
    )
    previous = np.concatenate([np.zeros((1,) + running.shape[1:]), running[:-1]])
    with np.errstate(invalid="ignore"):
        increments = np.where(
            np.abs(previous) >= np.abs(summands),
            (previous - running) + summands,
            (summands - running) + previous,
        )
    compensation = np.add.accumulate(increments, axis=0)[-1]
    result = running[-1] + 0.0
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
