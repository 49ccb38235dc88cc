"""Summary statistics with confidence intervals for experiment reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.exceptions import AnalysisError

try:  # pragma: no cover - depends on environment
    from scipy.stats import t as _student_t
except ImportError:  # pragma: no cover
    _student_t = None

__all__ = ["SummaryStats", "summarize", "confidence_interval"]


@dataclass(frozen=True)
class SummaryStats:
    """Mean, spread and range of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def format(self, precision: int = 3) -> str:
        return (
            f"{self.mean:.{precision}f} ± {self.ci_half_width:.{precision}f} "
            f"(n={self.count})"
        )


def _critical_value(confidence: float, dof: int) -> float:
    """Two-sided critical value (Student t when available, else normal)."""
    if _student_t is not None and dof > 0:
        return float(_student_t.ppf(0.5 + confidence / 2.0, dof))
    # Normal approximation via the inverse error function.
    return math.sqrt(2.0) * _erfinv(confidence)


def _erfinv(value: float) -> float:
    """Winitzki's approximation of the inverse error function."""
    if not -1.0 < value < 1.0:
        raise AnalysisError(f"erfinv argument must lie in (-1, 1), got {value}")
    a = 0.147
    log_term = math.log(1.0 - value * value)
    first = 2.0 / (math.pi * a) + log_term / 2.0
    inside = first * first - log_term / a
    return math.copysign(math.sqrt(math.sqrt(inside) - first), value)


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Two-sided confidence interval for the mean of ``values``."""
    if not values:
        raise AnalysisError("cannot compute a confidence interval of no values")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must lie in (0, 1), got {confidence}")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, mean
    variance = sum((value - mean) ** 2 for value in values) / (n - 1)
    std_error = math.sqrt(variance / n)
    critical = _critical_value(confidence, n - 1)
    return mean - critical * std_error, mean + critical * std_error


def summarize(values: Sequence[float], confidence: float = 0.95) -> SummaryStats:
    """Summarise a sample (mean, std, min, max, confidence interval)."""
    if not values:
        raise AnalysisError("cannot summarise an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        variance = sum((value - mean) ** 2 for value in values) / (n - 1)
    else:
        variance = 0.0
    ci_low, ci_high = confidence_interval(values, confidence)
    return SummaryStats(
        count=n,
        mean=mean,
        std=math.sqrt(variance),
        minimum=min(values),
        maximum=max(values),
        ci_low=ci_low,
        ci_high=ci_high,
    )
