"""Reputation reporting protocols: gathering second-hand evidence.

When a peer has little or no first-hand experience with a prospective
partner it asks *witnesses* for their beliefs.  Witnesses may be honest
(report their true belief), lie by inverting their belief (bad-mouthing or
ballot-stuffing), or simply be unavailable.

Collection has two shapes:

* the scalar path — :func:`collect_witness_reports` returns
  :class:`~repro.trust.aggregation.WitnessReport` objects for one subject,
  merged via :func:`~repro.trust.aggregation.combine_beta_evidence`; and
* the batched path — :func:`collect_witness_matrix` assembles one dense
  witness-belief matrix ``(n_witnesses, n_subjects, 2)`` for a whole query
  batch, which a trust backend folds into its direct evidence in a single
  ``aggregate_witness_reports`` call.

Both discount every witness's evidence by the requester's trust in that
witness; :func:`indirect_belief` runs the batched path, and the scalar
path remains the property-tested reference.  The simulated community does
not poll a :class:`WitnessPool`: its peers exchange reports through the
evidence plane and aggregate their inboxes
(:meth:`~repro.simulation.peer.CommunityPeer.trust_in_with_witnesses`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.exceptions import ReputationError
from repro.trust import (
    BetaBelief,
    BetaTrustModel,
    WitnessReport,
    combine_beta_evidence_matrix,
    stack_witness_beliefs,
)

__all__ = [
    "WitnessPool",
    "WitnessMatrix",
    "collect_witness_reports",
    "collect_witness_matrix",
    "indirect_belief",
]


@dataclass
class WitnessPool:
    """A set of witnesses (peers with their own beta-family trust state).

    Attributes
    ----------
    models:
        Mapping from witness id to that witness's trust state: anything
        exposing ``belief(subject_id) -> BetaBelief`` and
        ``observation_count(subject_id) -> int`` — a scalar
        :class:`BetaTrustModel` or a beta-family backend from
        :mod:`repro.trust.backend`.
    liars:
        Witnesses that invert their reports (they swap the honest and
        dishonest evidence counts), modelling bad-mouthing / ballot stuffing.
    availability:
        Probability that a witness answers a request at all.
    """

    models: Dict[str, BetaTrustModel]
    liars: Set[str] = None  # type: ignore[assignment]
    availability: float = 1.0

    def __post_init__(self) -> None:
        if self.liars is None:
            self.liars = set()
        unknown_liars = self.liars - set(self.models)
        if unknown_liars:
            raise ReputationError(f"liars not in the witness pool: {unknown_liars}")
        if not 0.0 <= self.availability <= 1.0:
            raise ReputationError(
                f"availability must lie in [0, 1], got {self.availability}"
            )

    def report_of(self, witness_id: str, subject_id: str) -> BetaBelief:
        """The belief the witness reports about the subject (possibly forged)."""
        model = self.models[witness_id]
        belief = model.belief(subject_id)
        if witness_id in self.liars:
            return BetaBelief(alpha=belief.beta, beta=belief.alpha)
        return belief

    def collect_witness_reports(
        self,
        subject_id: str,
        witness_trusts: Optional[Mapping[str, float]] = None,
        exclude: Optional[Iterable[str]] = None,
        rng: Optional[random.Random] = None,
    ) -> List[WitnessReport]:
        """Scalar collection for one subject (see module-level function)."""
        return collect_witness_reports(
            subject_id, self, witness_trusts=witness_trusts, exclude=exclude, rng=rng
        )


@dataclass(frozen=True)
class WitnessMatrix:
    """One query batch's second-hand evidence in backend-consumable form.

    ``matrix[w, s]`` holds witness ``witness_ids[w]``'s reported
    ``(alpha, beta)`` about ``subject_ids[s]`` — the uniform prior ``(1, 1)``
    when the witness had nothing to report (zero evidence, contributes
    nothing).  ``discounts[w]`` is the requester's trust in the witness.
    """

    subject_ids: Sequence[str]
    witness_ids: Sequence[str]
    matrix: np.ndarray
    discounts: np.ndarray

    @property
    def witness_count(self) -> int:
        return len(self.witness_ids)


def collect_witness_reports(
    subject_id: str,
    pool: WitnessPool,
    witness_trusts: Optional[Mapping[str, float]] = None,
    exclude: Optional[Iterable[str]] = None,
    rng: Optional[random.Random] = None,
) -> List[WitnessReport]:
    """Ask every available witness about ``subject_id``.

    ``witness_trusts`` supplies the requester's trust in each witness (used
    later as the discount); missing entries default to full trust.  The
    subject itself and any ids in ``exclude`` are never asked.
    """
    # A fixed-seed fallback keeps callers that omit ``rng`` reproducible
    # (DET001): an unseeded Random() here silently broke same-seed runs
    # whenever witness availability < 1.
    generator = rng if rng is not None else random.Random(0)
    excluded = set(exclude or ())
    excluded.add(subject_id)
    trusts = witness_trusts or {}
    reports: List[WitnessReport] = []
    for witness_id in pool.models:
        if witness_id in excluded:
            continue
        if pool.availability < 1.0 and generator.random() > pool.availability:
            continue
        if pool.models[witness_id].observation_count(subject_id) == 0:
            continue
        reports.append(
            WitnessReport(
                witness_id=witness_id,
                belief=pool.report_of(witness_id, subject_id),
                witness_trust=trusts.get(witness_id, 1.0),
            )
        )
    return reports


def collect_witness_matrix(
    subject_ids: Sequence[str],
    pool: WitnessPool,
    witness_trusts: Optional[Mapping[str, float]] = None,
    exclude: Optional[Iterable[str]] = None,
    rng: Optional[random.Random] = None,
) -> WitnessMatrix:
    """Ask every available witness about a whole batch of subjects at once.

    The batched counterpart of :func:`collect_witness_reports`: one
    availability draw per witness covers the whole batch (one request on the
    wire, not one per subject), and the answers land in a single
    witness-belief matrix ready for ``aggregate_witness_reports``.  A witness
    never reports about itself, and subjects it has no observations about
    get the uniform prior (zero evidence).
    """
    # A fixed-seed fallback keeps callers that omit ``rng`` reproducible
    # (DET001): an unseeded Random() here silently broke same-seed runs
    # whenever witness availability < 1.
    generator = rng if rng is not None else random.Random(0)
    excluded = set(exclude or ())
    trusts = witness_trusts or {}
    witness_ids: List[str] = []
    rows: List[List[Optional[BetaBelief]]] = []
    discounts: List[float] = []
    for witness_id in pool.models:
        if witness_id in excluded:
            continue
        if pool.availability < 1.0 and generator.random() > pool.availability:
            continue
        model = pool.models[witness_id]
        row: List[Optional[BetaBelief]] = []
        informed = False
        for subject_id in subject_ids:
            if subject_id == witness_id or model.observation_count(subject_id) == 0:
                row.append(None)
                continue
            row.append(pool.report_of(witness_id, subject_id))
            informed = True
        if not informed:
            continue
        witness_ids.append(witness_id)
        rows.append(row)
        discounts.append(trusts.get(witness_id, 1.0))
    matrix = (
        stack_witness_beliefs(rows) if rows else np.zeros((0, len(subject_ids), 2))
    )
    return WitnessMatrix(
        subject_ids=tuple(subject_ids),
        witness_ids=tuple(witness_ids),
        matrix=matrix,
        discounts=np.asarray(discounts, dtype=np.float64),
    )


def indirect_belief(
    subject_id: str,
    own_model,
    pool: WitnessPool,
    witness_trusts: Optional[Mapping[str, float]] = None,
    exclude: Optional[Iterable[str]] = None,
    rng: Optional[random.Random] = None,
) -> BetaBelief:
    """First-hand belief augmented with discounted witness evidence.

    ``own_model`` is anything exposing ``belief(subject_id) -> BetaBelief`` —
    a scalar :class:`BetaTrustModel` or one of the beta-family trust backends
    from :mod:`repro.trust.backend`.  Internally the reports are assembled
    into a witness matrix and merged in one vectorized pass; the result is
    identical to folding :func:`collect_witness_reports` through
    ``combine_beta_evidence``.
    """
    direct = own_model.belief(subject_id)
    collected = collect_witness_matrix(
        (subject_id,),
        pool,
        witness_trusts=witness_trusts,
        exclude=set(exclude or ()) | {subject_id},
        rng=rng,
    )
    alpha, beta = combine_beta_evidence_matrix(
        np.array([direct.alpha]),
        np.array([direct.beta]),
        collected.matrix,
        collected.discounts,
    )
    return BetaBelief(float(alpha[0]), float(beta[0]))

