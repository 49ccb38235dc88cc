"""The per-peer reputation management façade (Figure 1 of the paper).

:class:`ReputationManager` is what a peer in the community simulation holds.
It implements the feedback loop of the reference model: interaction outcomes
are fed back in (:meth:`record_interaction`, or in batches through
:meth:`record_many`), evidence is spread (complaints filed to a shared /
distributed store, ratings exposed to witnesses), and the trust-learning side
answers :meth:`trust_estimate` / :meth:`trust_scores` queries that the
decision making module then consumes.

All trust reads and writes are routed through the pluggable
:class:`~repro.trust.backend.TrustBackend` layer: the manager keeps one
``beta``, one ``decay`` and one ``complaint`` backend (the complaint backend
is shared community-wide when a shared store is supplied), feeds every
observation to all three in one vectorized call each, and answers queries
from whichever backend the requested :class:`TrustMethod` selects.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.exchange import Role
from repro.exceptions import ReputationError
from repro.reputation.records import InteractionRecord, Rating
from repro.reputation.reporting import WitnessPool, indirect_scores
from repro.trust import (
    BetaTrustModel,
    ComplaintStore,
    ComplaintTrustModel,
    DecayModel,
    ExponentialDecay,
    ScalarBetaBackendAdapter,
    TrustBackend,
    TrustObservation,
    create_backend,
)

__all__ = ["TrustMethod", "ReputationManager"]


class TrustMethod:
    """Names of the trust estimation methods a manager can use.

    ``BETA``, ``COMPLAINT`` and ``DECAY`` select the corresponding
    :class:`~repro.trust.backend.TrustBackend`; ``COMBINED`` is the
    conservative minimum of the beta and complaint estimates.
    """

    BETA = "beta"
    COMPLAINT = "complaint"
    COMBINED = "combined"
    DECAY = "decay"

    ALL = (BETA, COMPLAINT, COMBINED, DECAY)


class ReputationManager:
    """Reputation and trust management for one community member.

    Parameters
    ----------
    owner_id:
        The peer this manager belongs to.
    complaint_store:
        Shared (possibly distributed) complaint store, or a shared
        :class:`ComplaintTrustBackend` instance; defaults to a private store.
        A shared backend keeps whatever layout it was built with (sharded,
        rebalanced).  The backends the manager creates
        itself are always plain single-arena backends: they hold at most
        one row per community member, so partitioning them buys nothing.
    prior_alpha, prior_beta:
        Prior of the Bayesian trust backends.
    decay:
        Optional evidence decay for the BETA method.  Exponential decay is
        executed natively by the vectorized decay backend (which, unlike the
        old scalar model, also decays when queries omit ``now`` — it then
        evaluates at the newest evidence's timestamp); other decay models
        fall back to the scalar adapter.
    complaint_tolerance_factor:
        Tolerance factor of the complaint-based decision rule (default 4.0).
    complaint_metric_mode:
        Metric of the complaint backend.  The manager defaults to
        ``balanced`` (``cr * (1 + cf)``) rather than the faithful product,
        because the manager's complaint-based *trust value* must penalise
        peers that cheat without ever filing complaints themselves.  When
        ``complaint_store`` is a shared :class:`ComplaintTrustBackend` its
        own configuration applies; explicitly passing conflicting complaint
        parameters raises.
    decay_half_life:
        Half life of the DECAY method's backend.
    compact:
        Use memory-bounded storage for every backend this manager creates:
        chunked, compact-dtype evidence arrays (float32 evidence, int32
        counts) that grow without ever copying the whole table.  Scores stay
        within float32 accumulation tolerance of the default float64 layout
        (complaint counts are exactly representable, so the complaint
        method is unaffected).  A shared complaint backend supplied from
        outside keeps whatever layout it has.
    """

    def __init__(
        self,
        owner_id: str,
        complaint_store: Optional[ComplaintStore] = None,
        prior_alpha: float = 1.0,
        prior_beta: float = 1.0,
        decay: Optional[DecayModel] = None,
        complaint_tolerance_factor: Optional[float] = None,
        complaint_metric_mode: Optional[str] = None,
        decay_half_life: float = 100.0,
        compact: bool = False,
    ):
        if not owner_id:
            raise ReputationError("owner_id must be non-empty")
        self._owner_id = owner_id
        self._compact = compact
        if decay is None:
            beta_backend: TrustBackend = create_backend(
                "beta",
                prior_alpha=prior_alpha,
                prior_beta=prior_beta,
                compact=compact,
            )
        elif isinstance(decay, ExponentialDecay):
            beta_backend = create_backend(
                "decay",
                prior_alpha=prior_alpha,
                prior_beta=prior_beta,
                half_life=decay.half_life,
                compact=compact,
            )
        else:
            beta_backend = ScalarBetaBackendAdapter(
                BetaTrustModel(
                    prior_alpha=prior_alpha, prior_beta=prior_beta, decay=decay
                )
            )
        if isinstance(complaint_store, TrustBackend):
            complaint_backend = complaint_store
            # A shared backend carries its own configuration; a caller
            # explicitly asking for different complaint parameters would
            # silently get the backend's, so reject the conflict.
            conflicts = []
            if (
                complaint_tolerance_factor is not None
                and complaint_tolerance_factor != complaint_backend.tolerance_factor
            ):
                conflicts.append(
                    f"tolerance_factor {complaint_tolerance_factor} != "
                    f"{complaint_backend.tolerance_factor}"
                )
            if (
                complaint_metric_mode is not None
                and complaint_metric_mode != complaint_backend.metric_mode
            ):
                conflicts.append(
                    f"metric_mode {complaint_metric_mode!r} != "
                    f"{complaint_backend.metric_mode!r}"
                )
            if conflicts:
                raise ReputationError(
                    "complaint parameters conflict with the shared backend's "
                    f"({'; '.join(conflicts)}); configure the shared "
                    "ComplaintTrustBackend instead"
                )
        else:
            complaint_backend = create_backend(
                "complaint",
                store=complaint_store,
                tolerance_factor=(
                    4.0 if complaint_tolerance_factor is None
                    else complaint_tolerance_factor
                ),
                metric_mode=(
                    "balanced" if complaint_metric_mode is None
                    else complaint_metric_mode
                ),
                compact=compact,
            )
        # The DECAY backend is materialised lazily on first use (most peers
        # never query it); recorded interactions are replayed into it then,
        # so the lazy backend answers exactly as an always-on one would.
        self._backends: Dict[str, TrustBackend] = {
            TrustMethod.BETA: beta_backend,
            TrustMethod.COMPLAINT: complaint_backend,
        }
        self._prior_alpha = prior_alpha
        self._prior_beta = prior_beta
        self._decay_half_life = decay_half_life
        # The scalar façade exposes the *raw* shared store when one was
        # supplied (so existing callers keep identity: ``facade.store is
        # store``); writes through it are picked up by the backend's
        # change-tracking sync.
        facade_store = (
            complaint_store if complaint_store is not None else complaint_backend
        )
        self._complaint_facade = ComplaintTrustModel(
            store=facade_store,
            tolerance_factor=complaint_backend.tolerance_factor,
            metric_mode=complaint_backend.metric_mode,
        )
        self._interactions: list[InteractionRecord] = []
        self._ratings_given: list[Rating] = []

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def owner_id(self) -> str:
        return self._owner_id

    @property
    def backends(self) -> Mapping[str, TrustBackend]:
        """The materialised trust backends, keyed by :class:`TrustMethod` name."""
        return dict(self._backends)

    def backend_for(self, method: str) -> TrustBackend:
        """The backend answering queries for ``method`` (not COMBINED)."""
        if method == TrustMethod.DECAY:
            return self._ensure_decay_backend()
        backend = self._backends.get(method)
        if backend is None:
            raise ReputationError(f"no backend for trust method {method!r}")
        return backend

    def _ensure_decay_backend(self) -> TrustBackend:
        backend = self._backends.get(TrustMethod.DECAY)
        if backend is None:
            backend = create_backend(
                "decay",
                prior_alpha=self._prior_alpha,
                prior_beta=self._prior_beta,
                half_life=self._decay_half_life,
                compact=self._compact,
            )
            backend.update_many(
                [self._observation_from(record) for record in self._interactions]
            )
            self._backends[TrustMethod.DECAY] = backend
        return backend

    @property
    def beta_model(self) -> TrustBackend:
        """The backend serving the BETA method (kept for compatibility)."""
        return self._backends[TrustMethod.BETA]

    @property
    def complaint_model(self) -> ComplaintTrustModel:
        """Scalar façade over the complaint backend (kept for compatibility).

        Its store *is* the complaint backend, so reads and writes through the
        façade stay consistent with the vectorized counters.
        """
        return self._complaint_facade

    @property
    def interactions(self) -> tuple:
        return tuple(self._interactions)

    def interaction_count(self, partner_id: Optional[str] = None) -> int:
        if partner_id is None:
            return len(self._interactions)
        return sum(
            1
            for record in self._interactions
            if partner_id in (record.supplier_id, record.consumer_id)
        )

    # ------------------------------------------------------------------
    # Feedback loop: record outcomes, spread evidence
    # ------------------------------------------------------------------
    def record_interaction(self, record: InteractionRecord) -> None:
        """Feed one interaction outcome back into the reputation system."""
        self.record_many((record,))

    def _partner_role(self, record: InteractionRecord) -> Role:
        if self._owner_id == record.supplier_id:
            return Role.CONSUMER
        if self._owner_id == record.consumer_id:
            return Role.SUPPLIER
        raise ReputationError(
            f"peer {self._owner_id!r} is not a participant of the record"
        )

    def _observation_from(self, record: InteractionRecord) -> TrustObservation:
        partner_role = self._partner_role(record)
        return TrustObservation(
            observer_id=self._owner_id,
            subject_id=record.participant(partner_role),
            honest=record.honest(partner_role),
            timestamp=record.timestamp,
            weight=max(1.0, record.value) if record.value > 0 else 1.0,
        )

    def record_many(self, records: Sequence[InteractionRecord]) -> None:
        """Batch variant of :meth:`record_interaction`.

        Converts every record into one :class:`TrustObservation` about the
        partner and flushes the whole batch to each backend in a single
        ``update_many`` call — the data path the simulation engine uses when
        it flushes a tick's queued observations.  The whole batch is
        validated before any state changes, so a bad record leaves the
        manager untouched.
        """
        converted = [
            (record, self._observation_from(record)) for record in records
        ]
        if not converted:
            return
        observations = []
        for record, observation in converted:
            self._interactions.append(record)
            self._ratings_given.append(
                Rating.from_interaction(
                    record, rated_role=self._partner_role(record)
                )
            )
            observations.append(observation)
        for backend in self._backends.values():
            backend.update_many(observations)

    def file_complaint(self, accused_id: str, timestamp: float = 0.0) -> None:
        """File a complaint about ``accused_id`` through the complaint backend.

        Used both for legitimate complaints outside the interaction feedback
        loop and for the spurious complaints of malicious behaviour models.
        """
        self._backends[TrustMethod.COMPLAINT].update(
            TrustObservation(
                observer_id=self._owner_id,
                subject_id=accused_id,
                honest=True,
                timestamp=timestamp,
                files_complaint=True,
            )
        )

    # ------------------------------------------------------------------
    # Trust queries (consumed by the decision-making module)
    # ------------------------------------------------------------------
    def trust_estimate(
        self,
        subject_id: str,
        method: str = TrustMethod.BETA,
        now: Optional[float] = None,
        witness_pool: Optional[WitnessPool] = None,
        witness_trusts: Optional[Mapping[str, float]] = None,
    ) -> float:
        """Probability estimate that ``subject_id`` will behave honestly.

        ``method`` selects the backend: the Bayesian beta backend (optionally
        augmented with witness reports when a ``witness_pool`` is supplied),
        the complaint-based backend, the decay-weighted backend, or the
        conservative combination (minimum) of beta and complaint.
        """
        if method not in TrustMethod.ALL:
            raise ReputationError(f"unknown trust method {method!r}")
        if method == TrustMethod.BETA:
            return self._beta_trust(subject_id, now, witness_pool, witness_trusts)
        if method == TrustMethod.COMPLAINT:
            return self._backends[TrustMethod.COMPLAINT].score(subject_id)
        if method == TrustMethod.DECAY:
            return self._ensure_decay_backend().score(subject_id, now=now)
        beta_estimate = self._beta_trust(subject_id, now, witness_pool, witness_trusts)
        complaint_estimate = self._backends[TrustMethod.COMPLAINT].score(subject_id)
        return min(beta_estimate, complaint_estimate)

    def trust_scores(
        self,
        subject_ids: Sequence[str],
        method: str = TrustMethod.BETA,
        now: Optional[float] = None,
    ) -> np.ndarray:
        """Vectorized trust estimates for a batch of subjects.

        The batched read path used by matching and planning; witness
        augmentation goes through :meth:`indirect_trust_scores` (batched) or
        :meth:`trust_estimate` (single subject).
        """
        if method not in TrustMethod.ALL:
            raise ReputationError(f"unknown trust method {method!r}")
        if method == TrustMethod.COMBINED:
            return np.minimum(
                self._backends[TrustMethod.BETA].scores_for(subject_ids, now=now),
                self._backends[TrustMethod.COMPLAINT].scores_for(subject_ids),
            )
        if method == TrustMethod.COMPLAINT:
            return self._backends[TrustMethod.COMPLAINT].scores_for(subject_ids)
        return self.backend_for(method).scores_for(subject_ids, now=now)

    def indirect_trust_scores(
        self,
        subject_ids: Sequence[str],
        witness_pool: WitnessPool,
        witness_trusts: Optional[Mapping[str, float]] = None,
        now: Optional[float] = None,
    ) -> np.ndarray:
        """Witness-augmented beta trust for a whole batch of subjects.

        Assembles one witness-belief matrix for the batch (the owner is never
        asked as a witness) and folds it into the beta backend's direct
        evidence with a single ``aggregate_witness_reports`` call.  Witness
        discounts default to the owner's *own* current trust in each witness
        when ``witness_trusts`` is not supplied — distrusted witnesses are
        heard but barely counted.
        """
        backend = self._backends[TrustMethod.BETA]
        if witness_trusts is None:
            witness_ids = [
                witness_id
                for witness_id in witness_pool.models
                if witness_id != self._owner_id
            ]
            if witness_ids:
                scores = backend.scores_for(witness_ids, now=now)
                witness_trusts = {
                    witness_id: float(score)
                    for witness_id, score in zip(witness_ids, scores)
                }
        return indirect_scores(
            subject_ids,
            backend,
            witness_pool,
            witness_trusts=witness_trusts,
            exclude=(self._owner_id,),
            now=now,
        )

    def is_trustworthy(
        self, subject_id: str, threshold: float = 0.5, method: str = TrustMethod.BETA
    ) -> bool:
        """Binary gate used by simple strategies."""
        if method == TrustMethod.COMPLAINT:
            # The complaint scheme's decision is relative to the community
            # median; trust_decisions gathers it across shards when the
            # backend is partitioned.
            backend = self._backends[TrustMethod.COMPLAINT]
            return bool(backend.trust_decisions((subject_id,))[0])
        return self.trust_estimate(subject_id, method=method) >= threshold

    def trust_snapshot(self, method: str = TrustMethod.BETA) -> Dict[str, float]:
        """Trust estimates for every subject the manager has evidence about."""
        subjects = set(self._backends[TrustMethod.BETA].known_subjects())
        subjects.update(self._backends[TrustMethod.COMPLAINT].known_subjects())
        subjects.discard(self._owner_id)
        ordered = sorted(subjects)
        if not ordered:
            return {}
        scores = self.trust_scores(ordered, method=method)
        return {subject: float(score) for subject, score in zip(ordered, scores)}

    # ------------------------------------------------------------------
    def _beta_trust(
        self,
        subject_id: str,
        now: Optional[float],
        witness_pool: Optional[WitnessPool],
        witness_trusts: Optional[Mapping[str, float]],
    ) -> float:
        backend = self._backends[TrustMethod.BETA]
        if witness_pool is None:
            return backend.score(subject_id, now=now)
        scores = indirect_scores(
            (subject_id,),
            backend,
            witness_pool,
            witness_trusts=witness_trusts,
            exclude=(self._owner_id,),
            now=now,
        )
        return float(scores[0])
