"""Aggregation of direct and second-hand trust evidence.

First-hand observations are scarce in open communities: most prospective
partners are strangers.  Reputation reporting therefore supplies second-hand
evidence (witness reports), which must be *discounted* by the trust placed in
the witnesses themselves before it is merged with first-hand beliefs.

Two data paths are provided:

* the scalar reference — :func:`combine_beta_evidence` merges
  :class:`WitnessReport` objects one by one via :meth:`BetaBelief.merged`;
* the batched path — a *witness-belief matrix* of shape
  ``(n_witnesses, n_subjects, 2)`` holding each witness's ``(alpha, beta)``
  posterior about each subject, combined with a per-witness discount vector
  in one numpy pass (:func:`combine_beta_evidence_matrix`).  The trust
  backends' ``aggregate_witness_reports`` methods build on this core; the
  scalar function remains the behavioural reference the batched path is
  property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TrustModelError
from repro.trust.beta import BetaBelief

__all__ = [
    "WitnessReport",
    "combine_beta_evidence",
    "combine_beta_evidence_matrix",
    "stack_witness_beliefs",
    "validate_witness_matrix",
    "witness_report_sums",
]


@dataclass(frozen=True)
class WitnessReport:
    """A witness's belief about a subject, with the trust put in the witness."""

    witness_id: str
    belief: BetaBelief
    witness_trust: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.witness_trust <= 1.0:
            raise TrustModelError(
                f"witness_trust must lie in [0, 1], got {self.witness_trust}"
            )


def combine_beta_evidence(
    direct: BetaBelief, reports: Iterable[WitnessReport]
) -> BetaBelief:
    """Merge witness reports into a first-hand belief with discounting.

    Each report's evidence counts (its pseudo-counts beyond the uniform
    prior) are scaled by the trust put in the witness and added to the direct
    belief.  A witness that is not trusted at all therefore contributes
    nothing; a fully trusted witness contributes as if its observations were
    first-hand.
    """
    combined = direct
    for report in reports:
        combined = combined.merged(report.belief, discount=report.witness_trust)
    return combined


def validate_witness_matrix(
    subject_count: int,
    witness_belief_matrix: np.ndarray,
    discount_vector: np.ndarray,
    positive: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and canonicalise a ``(W, S, 2)`` belief matrix + discounts.

    Returns float64 views/copies of both arrays.  ``W`` (the number of
    witnesses) may be zero — an empty report set is a valid query that
    degrades to direct evidence only.  ``positive`` is the beta-family rule
    (``(alpha, beta)`` parameters must be strictly positive); complaint-count
    reports pass ``positive=False`` and only need to be non-negative.
    """
    discounts = np.asarray(discount_vector, dtype=np.float64)
    matrix = np.asarray(witness_belief_matrix, dtype=np.float64)
    if matrix.ndim != 3 or matrix.shape[2] != 2:
        raise TrustModelError(
            f"witness_belief_matrix must have shape (W, S, 2), got {matrix.shape}"
        )
    if matrix.shape[1] != subject_count:
        raise TrustModelError(
            f"witness_belief_matrix covers {matrix.shape[1]} subjects, "
            f"query names {subject_count}"
        )
    if discounts.ndim != 1 or discounts.shape[0] != matrix.shape[0]:
        raise TrustModelError(
            f"discount_vector must have shape ({matrix.shape[0]},), "
            f"got {discounts.shape}"
        )
    if matrix.size and positive and (matrix <= 0).any():
        raise TrustModelError("witness beliefs must have positive (alpha, beta)")
    if matrix.size and not positive and (matrix < 0).any():
        raise TrustModelError("witness reports must be non-negative")
    if discounts.size and ((discounts < 0) | (discounts > 1)).any():
        raise TrustModelError("discounts must lie in [0, 1]")
    return matrix, discounts


def combine_beta_evidence_matrix(
    direct_alpha: np.ndarray,
    direct_beta: np.ndarray,
    witness_belief_matrix: np.ndarray,
    discount_vector: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized core of :func:`combine_beta_evidence` over many subjects.

    ``direct_alpha`` / ``direct_beta`` are the requester's own posterior
    parameters per subject (shape ``(S,)``).  Each witness's evidence counts
    beyond the uniform prior (``alpha - 1``, ``beta - 1``, clipped at zero —
    exactly what :meth:`BetaBelief.merged` discounts) are scaled by that
    witness's discount and summed into the direct counts.  Returns the
    combined ``(alpha, beta)`` vectors; for every subject the result is
    bit-identical in semantics to folding the same reports through
    :func:`combine_beta_evidence`.
    """
    direct_alpha = np.asarray(direct_alpha, dtype=np.float64)
    direct_beta = np.asarray(direct_beta, dtype=np.float64)
    matrix, discounts = validate_witness_matrix(
        direct_alpha.shape[0], witness_belief_matrix, discount_vector
    )
    if matrix.shape[0] == 0:
        return direct_alpha.copy(), direct_beta.copy()
    contribution = witness_report_sums(matrix, discounts, evidence=True)
    return direct_alpha + contribution[:, 0], direct_beta + contribution[:, 1]


def witness_report_sums(
    matrix: np.ndarray, discounts: np.ndarray, evidence: bool = False
) -> np.ndarray:
    """Discount-weighted per-subject report sums, shape ``(S, 2)``.

    ``evidence=True`` first subtracts the uniform prior from each report
    (``clip(x - 1, 0, ...)`` — the beta-family evidence rule); ``False``
    sums raw report values (the complaint-count rule).
    """
    values = np.clip(matrix - 1.0, 0.0, None) if evidence else matrix
    return np.einsum("w,wsk->sk", discounts, values)


def stack_witness_beliefs(
    witness_beliefs: Sequence[Sequence[Optional[BetaBelief]]],
) -> np.ndarray:
    """Stack per-witness belief rows into a ``(W, S, 2)`` matrix.

    ``witness_beliefs[w][s]`` is witness ``w``'s belief about subject ``s``;
    ``None`` marks "witness has nothing to report" and becomes the uniform
    prior ``(1, 1)``, which carries zero evidence and therefore contributes
    nothing after discounting — the matrix equivalent of the scalar path
    simply skipping that witness.
    """
    if not witness_beliefs:
        return np.zeros((0, 0, 2))
    subject_count = len(witness_beliefs[0])
    matrix = np.ones((len(witness_beliefs), subject_count, 2))
    for row, beliefs in enumerate(witness_beliefs):
        if len(beliefs) != subject_count:
            raise TrustModelError("ragged witness belief rows")
        for column, belief in enumerate(beliefs):
            if belief is not None:
                matrix[row, column, 0] = belief.alpha
                matrix[row, column, 1] = belief.beta
    return matrix
