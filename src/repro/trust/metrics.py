"""Accuracy metrics for trust estimates.

The trust-learning experiments (Figure 2, Ablation C) need to quantify how
well a trust model recovers the peers' true honesty probabilities and how
well its accept/reject decisions separate honest from dishonest peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from repro.exceptions import AnalysisError

__all__ = [
    "mean_absolute_error",
    "ClassificationReport",
    "classification_report",
]


def _paired(
    estimates: Mapping[str, float], truths: Mapping[str, float]
) -> Sequence[Tuple[float, float]]:
    common = sorted(set(estimates) & set(truths))
    if not common:
        raise AnalysisError("estimates and truths share no subjects")
    return [(estimates[key], truths[key]) for key in common]


def mean_absolute_error(
    estimates: Mapping[str, float], truths: Mapping[str, float]
) -> float:
    """Mean absolute error between estimated and true honesty probabilities."""
    pairs = _paired(estimates, truths)
    return sum(abs(estimate - truth) for estimate, truth in pairs) / len(pairs)


@dataclass(frozen=True)
class ClassificationReport:
    """Confusion counts of a trust-threshold decision rule.

    "Positive" means *accepted as trustworthy*.  A false accept therefore is
    a dishonest peer that was trusted (the costly error for the exposed
    party), and a false reject is an honest peer that was turned away
    (opportunity cost).
    """

    true_accepts: int
    false_accepts: int
    true_rejects: int
    false_rejects: int

    @property
    def total(self) -> int:
        return (
            self.true_accepts
            + self.false_accepts
            + self.true_rejects
            + self.false_rejects
        )

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        return (self.true_accepts + self.true_rejects) / self.total

    @property
    def false_accept_rate(self) -> float:
        dishonest = self.false_accepts + self.true_rejects
        if dishonest == 0:
            return 0.0
        return self.false_accepts / dishonest

    @property
    def false_reject_rate(self) -> float:
        honest = self.true_accepts + self.false_rejects
        if honest == 0:
            return 0.0
        return self.false_rejects / honest

    @property
    def precision(self) -> float:
        accepted = self.true_accepts + self.false_accepts
        if accepted == 0:
            return 0.0
        return self.true_accepts / accepted

    @property
    def recall(self) -> float:
        honest = self.true_accepts + self.false_rejects
        if honest == 0:
            return 0.0
        return self.true_accepts / honest


def classification_report(
    estimates: Mapping[str, float],
    honest_labels: Mapping[str, bool],
    threshold: float = 0.5,
) -> ClassificationReport:
    """Evaluate the decision "accept iff estimated trust >= threshold"."""
    if not 0.0 <= threshold <= 1.0:
        raise AnalysisError(f"threshold must lie in [0, 1], got {threshold}")
    common = sorted(set(estimates) & set(honest_labels))
    if not common:
        raise AnalysisError("estimates and labels share no subjects")
    true_accepts = false_accepts = true_rejects = false_rejects = 0
    for key in common:
        accepted = estimates[key] >= threshold
        honest = honest_labels[key]
        if accepted and honest:
            true_accepts += 1
        elif accepted and not honest:
            false_accepts += 1
        elif not accepted and not honest:
            true_rejects += 1
        else:
            false_rejects += 1
    return ClassificationReport(
        true_accepts=true_accepts,
        false_accepts=false_accepts,
        true_rejects=true_rejects,
        false_rejects=false_rejects,
    )
