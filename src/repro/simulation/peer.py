"""A community member: behaviour, reputation management and risk attitude."""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.reputation.manager import ReputationManager, TrustMethod
from repro.reputation.records import InteractionRecord
from repro.simulation.behaviors import (
    BehaviorModel,
    HonestBehavior,
    TruthfulWitness,
    WitnessReportPolicy,
)
from repro.trust import BetaBelief, ComplaintStore, stack_witness_beliefs

__all__ = ["CommunityPeer"]


class CommunityPeer:
    """One member of the simulated online community.

    A peer bundles the three per-member pieces of the reference model: its
    actual behaviour (ground truth, used when executing exchanges), its
    reputation/trust management state (the :class:`ReputationManager`), and
    the economic parameters the decision layer needs (its reputation
    continuation value, i.e. how much future business a defection would
    destroy for it).
    """

    def __init__(
        self,
        peer_id: str,
        behavior: Optional[BehaviorModel] = None,
        complaint_store: Optional[ComplaintStore] = None,
        defection_penalty: float = 0.0,
        supplies_goods: bool = True,
        consumes_goods: bool = True,
        trust_method: str = TrustMethod.BETA,
        witness_policy: Optional[WitnessReportPolicy] = None,
        compact: bool = False,
    ):
        if not peer_id:
            raise SimulationError("peer_id must be non-empty")
        if defection_penalty < 0:
            raise SimulationError("defection_penalty must be >= 0")
        if trust_method not in TrustMethod.ALL:
            raise SimulationError(
                f"trust_method must be one of {TrustMethod.ALL}, got {trust_method!r}"
            )
        self.peer_id = peer_id
        self.behavior: BehaviorModel = behavior if behavior is not None else HonestBehavior()
        self.reputation = ReputationManager(
            owner_id=peer_id,
            complaint_store=complaint_store,
            compact=compact,
        )
        self.defection_penalty = defection_penalty
        self.supplies_goods = supplies_goods
        self.consumes_goods = consumes_goods
        self.trust_method = trust_method
        self.witness_policy: WitnessReportPolicy = (
            witness_policy if witness_policy is not None else TruthfulWitness()
        )
        # subject_id -> witness_id -> (alpha, beta): the latest second-hand
        # report received from each witness, merged into trust reads on
        # demand (see trust_in_with_witnesses).  The assembled (W, 1, 2)
        # matrix per subject is cached between deliveries — trust reads per
        # round far outnumber inbox updates.
        self._witness_inbox: Dict[str, Dict[str, Tuple[float, float]]] = {}
        self._witness_matrix_cache: Dict[
            str, Tuple[Tuple[str, ...], np.ndarray]
        ] = {}

    def __repr__(self) -> str:
        return (
            f"CommunityPeer({self.peer_id!r}, behavior={self.behavior.describe()})"
        )

    # ------------------------------------------------------------------
    # Trust interface used by the community orchestration
    # ------------------------------------------------------------------
    def trust_in(self, partner_id: str, now: Optional[float] = None) -> float:
        """Current trust estimate in a partner using the peer's configured method."""
        return self.reputation.trust_estimate(
            partner_id, method=self.trust_method, now=now
        )

    def trust_in_many(
        self, partner_ids: Sequence[str], now: Optional[float] = None
    ) -> np.ndarray:
        """Vectorized trust estimates for a batch of prospective partners."""
        return self.reputation.trust_scores(
            partner_ids, method=self.trust_method, now=now
        )

    def observe_outcome(self, record: InteractionRecord) -> None:
        """Feed an interaction outcome back into the peer's reputation state."""
        self.reputation.record_interaction(record)

    def observe_outcomes(self, records: Sequence[InteractionRecord]) -> None:
        """Feed a batch of outcomes back in one backend flush per backend."""
        self.reputation.record_many(records)

    def maybe_file_false_complaint(
        self,
        partner_id: str,
        rng: random.Random,
        timestamp: float = 0.0,
        via: Optional[Callable[["CommunityPeer", str, float], None]] = None,
    ) -> bool:
        """Possibly pollute the complaint store after an honest interaction.

        Returns ``True`` when a spurious complaint was filed.  The
        probability comes from the peer's behaviour model; honest peers never
        do this.  ``via`` routes the filing through an evidence plane
        (``via(self, partner_id, timestamp)``) instead of writing directly,
        so async runs can delay or lose it.
        """
        probability = self.behavior.false_complaint_probability
        if probability <= 0.0 or partner_id == self.peer_id:
            return False
        if rng.random() >= probability:
            return False
        if via is not None:
            via(self, partner_id, timestamp)
        else:
            self.reputation.file_complaint(partner_id, timestamp=timestamp)
        return True

    # ------------------------------------------------------------------
    # Witness reporting (the second-hand half of the evidence plane)
    # ------------------------------------------------------------------
    def build_witness_reports(
        self, subject_ids: Sequence[str]
    ) -> List[Tuple[str, float, float]]:
        """Answer a witness-report request about ``subject_ids``.

        Returns ``(subject_id, alpha, beta)`` triples — the peer's beta
        posterior filtered through its :class:`WitnessReportPolicy` (a
        coalition member forges here).  Subjects the peer has no first-hand
        evidence about are omitted, except that a forging policy may still
        fabricate a report about them.
        """
        backend = self.reputation.backend_for(TrustMethod.BETA)
        reports: List[Tuple[str, float, float]] = []
        for subject_id in subject_ids:
            if subject_id == self.peer_id:
                continue
            belief = backend.belief(subject_id)  # repro: allow(PERF001) — each witness request names one subject, so a batched beliefs_for read buys nothing
            reported = self.witness_policy.report(subject_id, belief)
            forged = (
                reported.alpha != belief.alpha or reported.beta != belief.beta
            )
            if not forged and backend.observation_count(subject_id) == 0:
                continue
            reports.append((subject_id, reported.alpha, reported.beta))
        return reports

    def receive_witness_reports(
        self, witness_id: str, reports: Sequence[Tuple[str, float, float]]
    ) -> None:
        """Store delivered witness reports (latest report per witness wins)."""
        for subject_id, alpha, beta in reports:
            self._witness_inbox.setdefault(subject_id, {})[witness_id] = (
                float(alpha),
                float(beta),
            )
            self._witness_matrix_cache.pop(subject_id, None)

    def _witness_matrix_for(
        self, subject_id: str
    ) -> Tuple[Tuple[str, ...], np.ndarray]:
        """The inbox's reports about one subject as a (W, 1, 2) matrix."""
        cached = self._witness_matrix_cache.get(subject_id)
        if cached is None:
            inbox = self._witness_inbox.get(subject_id, {})
            witness_ids = tuple(sorted(inbox))
            matrix = stack_witness_beliefs(
                [[BetaBelief(*inbox[witness_id])] for witness_id in witness_ids]
            )
            cached = (witness_ids, matrix)
            self._witness_matrix_cache[subject_id] = cached
        return cached

    def witness_reports_about(
        self, subject_id: str
    ) -> Dict[str, Tuple[float, float]]:
        """The second-hand reports currently held about one subject."""
        return dict(self._witness_inbox.get(subject_id, {}))

    def trust_in_with_witnesses(
        self, partner_id: str, now: Optional[float] = None
    ) -> float:
        """Trust in a partner, folding in received witness reports.

        Reports are assembled into a witness-belief matrix and aggregated by
        the beta-family backend in one vectorized call, each witness
        discounted by this peer's *own* current trust in it — the
        second-hand evidence path of the paper's reference model.  With an
        empty inbox (or a complaint-only trust method) this equals
        :meth:`trust_in`.
        """
        if not self._witness_inbox.get(partner_id):
            return self.trust_in(partner_id, now=now)
        if self.trust_method == TrustMethod.COMPLAINT:
            return self.trust_in(partner_id, now=now)
        witness_ids, matrix = self._witness_matrix_for(partner_id)
        beta_backend = self.reputation.backend_for(TrustMethod.BETA)
        discounts = np.clip(
            beta_backend.scores_for(witness_ids, now=now), 0.0, 1.0
        )
        method = (
            TrustMethod.BETA
            if self.trust_method == TrustMethod.COMBINED
            else self.trust_method
        )
        backend = self.reputation.backend_for(method)
        augmented = float(
            backend.aggregate_witness_reports(
                (partner_id,), matrix, discounts, now=now
            )[0]
        )
        if self.trust_method == TrustMethod.COMBINED:
            complaint = self.reputation.backend_for(TrustMethod.COMPLAINT)
            return min(augmented, float(complaint.score(partner_id)))
        return augmented

    @property
    def true_honesty(self) -> float:
        """Ground-truth honesty probability (for evaluating trust models)."""
        return self.behavior.honesty_probability
