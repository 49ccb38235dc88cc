"""Pluggable trust backends: one batched data path for all trust computation.

The paper's reference model (Figure 1) feeds interaction outcomes and witness
reports into a *trust computation* module whose estimates the decision layer
consumes.  Historically every consumer of this library hand-wired one of the
scalar models (:class:`~repro.trust.beta.BetaTrustModel`,
:class:`~repro.trust.complaint.ComplaintTrustModel`) and pushed evidence in
one observation at a time.  This module unifies the three trust computation
schemes behind a single :class:`TrustBackend` interface with **batch**
methods:

* :meth:`TrustBackend.update_many` ingests a whole batch of
  :class:`TrustObservation` records at once,
* :meth:`TrustBackend.scores_for` answers a whole batch of trust queries as a
  numpy vector, and
* :meth:`TrustBackend.aggregate_witness_reports` folds a whole witness-belief
  matrix (second-hand evidence, discounted per witness) into the backend's
  direct evidence in one vectorized pass — the evidence-plane query path that
  replaces merging scalar beliefs witness by witness,

all backed by one :class:`~repro.trust.storage.EvidenceTable` per backend:
declared numpy columns over an interned peer-id table, which also keeps the
always-on dirty-row score cache.  :meth:`TrustBackend.snapshot` (a dict of
numpy arrays including the peer-id table) and :meth:`TrustBackend.restore`
checkpoint a backend.  The simulation layer flushes a tick's observations
in one ``update_many`` call; the decision layer reads whole score vectors.

Three backends are provided and discoverable through a small registry
(as scenarios are through the table in :mod:`repro.workloads.registry`):

``beta``
    Bayesian beta-Bernoulli posterior per subject (Mui et al., HICSS 2002) —
    the vectorized equivalent of :class:`~repro.trust.beta.BetaTrustModel`
    without decay.
``complaint``
    The complaint-based P-Grid scheme of Aberer & Despotovic (CIKM 2001):
    complaints received × complaints filed against a community median
    reference.  The backend keeps its own counters and complaint log; one
    instance shared by every peer is the community's complaint store.
``decay``
    The ``beta`` kernel plus a reference-time column: exponentially
    decay-weighted evidence with O(1) online updates, identical to
    ``BetaTrustModel`` with :class:`~repro.trust.decay.ExponentialDecay`
    but keeping running decayed sums instead of rescanning a log.

Every backend agrees with its scalar reference implementation on identical
observation streams (see ``tests/trust/test_backend.py``), which is the
regression guard for this refactor.  One deliberate exception: the ``decay``
backend queried with ``now=None`` evaluates at its newest-evidence reference
time, whereas the scalar model ignored its decay model entirely when no
query time was supplied — always-decaying is the behaviour a decay model is
configured for; pass an explicit ``now`` where the distinction matters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import TrustModelError
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.trust.aggregation import (
    WitnessReport,
    combine_beta_evidence,
    combine_beta_evidence_matrix,
    validate_witness_matrix,
    witness_report_sums,
)
from repro.trust.beta import BetaBelief, BetaTrustModel
from repro.trust.evidence import Complaint
from repro.trust.storage import EvidenceTable

__all__ = [
    "TrustObservation",
    "TrustBackend",
    "BetaTrustBackend",
    "DecayTrustBackend",
    "ComplaintTrustBackend",
    "ScalarBetaBackendAdapter",
    "BACKEND_NAMES",
    "register_backend",
    "create_backend",
    "backend_names",
    "complaint_log_items",
    "complaints_from_snapshot",
]


@dataclass(frozen=True)
class TrustObservation:
    """One unit of trust evidence, consumable by every backend.

    Attributes
    ----------
    observer_id:
        Peer that made the observation (the complainant for complaint-style
        evidence).
    subject_id:
        Peer whose behaviour was observed.
    honest:
        Whether the subject behaved honestly.
    timestamp:
        Simulation time of the interaction (used by decaying backends).
    weight:
        Importance of the observation, e.g. the value at stake.
    files_complaint:
        Whether the observer files a complaint about the subject.  ``None``
        (the default) means "file exactly when the subject was dishonest";
        an explicit ``True`` with ``honest=True`` models the spurious
        complaints malicious peers use to pollute the complaint system.
    """

    observer_id: str
    subject_id: str
    honest: bool
    timestamp: float = 0.0
    weight: float = 1.0
    files_complaint: Optional[bool] = None

    def __post_init__(self) -> None:
        if not self.observer_id or not self.subject_id:
            raise TrustModelError("observer_id and subject_id must be non-empty")
        if self.weight <= 0:
            raise TrustModelError(f"weight must be positive, got {self.weight}")

    @property
    def complaint_filed(self) -> bool:
        """Whether this observation carries a complaint."""
        if self.files_complaint is not None:
            return self.files_complaint
        return not self.honest


class TrustBackend:
    """Interface all trust backends implement (the pluggable layer).

    Scalar convenience methods (:meth:`update`, :meth:`score`) are expressed
    in terms of the batch methods, so a backend only has to implement the
    vectorized path.
    """

    #: Registry name of the backend.
    name: str = "backend"

    # -- writes ---------------------------------------------------------
    def update(self, observation: TrustObservation) -> None:
        """Ingest a single observation (delegates to :meth:`update_many`)."""
        self.update_many((observation,))

    def update_many(self, observations: Sequence[TrustObservation]) -> None:
        """Ingest a batch of observations in one vectorized pass."""
        raise NotImplementedError

    # -- reads ----------------------------------------------------------
    def score(self, subject_id: str, now: Optional[float] = None) -> float:
        """Trust estimate in ``[0, 1]`` for one subject."""
        return float(self.scores_for((subject_id,), now=now)[0])

    def trust(self, subject_id: str, now: Optional[float] = None) -> float:
        """Scalar-model-compatible alias of :meth:`score`."""
        return self.score(subject_id, now=now)

    def scores_for(
        self, subject_ids: Sequence[str], now: Optional[float] = None
    ) -> np.ndarray:
        """Vector of trust estimates, aligned with ``subject_ids``."""
        raise NotImplementedError

    def aggregate_witness_reports(
        self,
        subject_ids: Sequence[str],
        witness_belief_matrix: np.ndarray,
        discount_vector: np.ndarray,
        now: Optional[float] = None,
    ) -> np.ndarray:
        """Trust estimates combining direct evidence with witness reports.

        ``witness_belief_matrix`` has shape ``(W, S, 2)``: witness ``w``'s
        report about subject ``s``.  For the beta-family backends a report is
        a ``(alpha, beta)`` posterior and a witness's evidence counts beyond
        the uniform prior are scaled by ``discount_vector[w]`` (the trust
        placed in that witness) before being added to the backend's own
        posterior — the vectorized equivalent of
        :func:`repro.trust.aggregation.combine_beta_evidence`.  For the
        complaint backend a report is a ``(received, filed)`` complaint-count
        pair and the discounts weight the per-witness count sums.  ``W`` may
        be zero, in which case the result equals :meth:`scores_for`.
        """
        raise NotImplementedError

    def trust_decisions(
        self,
        subject_ids: Sequence[str],
        threshold: float = 0.5,
        now: Optional[float] = None,
    ) -> np.ndarray:
        """Batched binary trust decisions, aligned with ``subject_ids``.

        The default gates :meth:`scores_for` at ``threshold``; the complaint
        backend overrides it with the Aberer–Despotovic median rule (which
        ignores ``threshold``).  Consumers use this instead of reaching into
        backend-specific decision methods so sharded/wrapped backends can
        gather decisions across partitions.
        """
        return self.scores_for(subject_ids, now=now) >= threshold

    def known_subjects(self) -> Tuple[str, ...]:
        """Subjects the backend holds evidence about."""
        raise NotImplementedError

    def row_count(self) -> int:
        """Number of resident per-subject rows.

        The sharded layer polls this as its load signal after every write
        batch, so backends override it with an O(1) answer instead of this
        default's full name-table materialisation.
        """
        return len(self.known_subjects())

    def scores_snapshot(self, now: Optional[float] = None) -> Dict[str, float]:
        """Trust estimates for every known subject."""
        subjects = self.known_subjects()
        if not subjects:
            return {}
        scores = self.scores_for(subjects, now=now)
        return {subject: float(score) for subject, score in zip(subjects, scores)}

    # -- persistence -----------------------------------------------------
    def snapshot(self) -> Dict[str, np.ndarray]:
        """Serialise the backend's state as a dict of numpy arrays.

        The snapshot round-trips through :meth:`restore`: it contains the
        evidence arrays *and* the interned peer-id table, so a restored
        backend answers every query exactly as the original did.  Keys are
        backend-specific; every snapshot carries a ``"backend"`` entry naming
        the producing backend so mismatched restores fail loudly.
        """
        return dict(self.snapshot_items())

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        """Replace the backend's state with a :meth:`snapshot` payload."""
        raise NotImplementedError

    def snapshot_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Stream the snapshot one ``(key, array)`` entry at a time.

        The streaming face of :meth:`snapshot`: entries are materialised
        lazily, so a consumer that serialises (or forwards) each entry and
        drops it holds at most one evidence column in memory — the
        checkpoint path for tables too large to copy wholesale.  Entry
        values are freshly materialised copies; consume the iterator before
        the next write batch.  ``dict(backend.snapshot_items())`` equals
        :meth:`snapshot`.
        """
        raise NotImplementedError

    def restore_items(
        self, items: Iterable[Tuple[str, np.ndarray]]
    ) -> None:
        """Restore from a stream of :meth:`snapshot_items` entries.

        The base implementation materialises the stream; layered backends
        (the sharded wrapper) override it to restore partition by
        partition without ever holding the full manifest.
        """
        self.restore(dict(items))

    def _check_snapshot_backend(self, state: Dict[str, np.ndarray]) -> None:
        recorded = state.get("backend")
        if recorded is None or str(np.asarray(recorded).item()) != self.name:
            raise TrustModelError(
                f"snapshot was taken by backend {recorded!r}, "
                f"cannot restore into {self.name!r}"
            )

    def describe(self) -> str:
        return self.name

    # -- observability ---------------------------------------------------
    #: Telemetry registry the backend reports through.  The shared null
    #: registry is a class attribute, so unbound backends pay one attribute
    #: lookup and a false ``enabled`` check — nothing else.
    telemetry = NULL_REGISTRY

    #: Hot-path metric names, precomputed once per instance on first use so
    #: instrumented batches never build strings per call (TEL001).
    _metric_names: Optional[Tuple[str, str, str, str]] = None

    def bind_telemetry(self, registry: MetricsRegistry) -> None:
        """Route this backend's hot-path metrics through ``registry``."""
        self.telemetry = registry

    def _bound_metric_names(self) -> Tuple[str, str, str, str]:
        names = self._metric_names
        if names is None:
            prefix = "backend." + self.name
            names = self._metric_names = (
                prefix + ".update_batches",
                prefix + ".update_batch_size",
                prefix + ".score_queries",
                prefix + ".score_query_size",
            )
        return names

    def _record_update(self, units: int) -> None:
        """Tally one ``update_many`` batch (size histogram + call count)."""
        telemetry = self.telemetry
        if telemetry.enabled:
            names = self._bound_metric_names()
            telemetry.count(names[0])
            telemetry.observe(names[1], units)

    def _record_query(self, units: int) -> None:
        """Tally one ``scores_for`` query (size histogram + call count)."""
        telemetry = self.telemetry
        if telemetry.enabled:
            names = self._bound_metric_names()
            telemetry.count(names[2])
            telemetry.observe(names[3], units)

    def describe_config(self) -> str:
        """The full effective configuration as one canonical line.

        Reports kind, sharding, router and rebalance — the single source
        the run summary prints instead of re-deriving the line from CLI
        flags.  The sharded store overrides
        :meth:`_config_parts` to fill in its layout.
        """
        return ", ".join(self._config_parts())

    def _config_parts(self) -> List[str]:
        return [self.name, "unsharded", "rebalance off"]


class BetaTrustBackend(TrustBackend):
    """Vectorized beta-Bernoulli trust: the beta-family kernel (no decay).

    Keeps per-subject evidence pseudo-counts in an
    :class:`~repro.trust.storage.EvidenceTable` (columns ``alpha``,
    ``beta``, ``count``); the posterior mean
    ``(prior_alpha + a) / (prior + a + b)`` is the trust estimate.
    Equivalent to :class:`~repro.trust.beta.BetaTrustModel` without a decay
    model, but updates and queries are O(batch) numpy operations instead of
    per-peer list appends and rescans.  :class:`DecayTrustBackend` is this
    kernel plus a reference-time column and a decay factor.

    Repeated queries are answered from the table's dirty-row score cache,
    which ``update_many`` invalidates row by row; cached scores are
    bit-identical to the per-row formula.
    """

    name = "beta"

    #: Evidence columns, in snapshot order.
    COLUMNS: Tuple[str, ...] = ("alpha", "beta", "count")

    #: Whether scores depend on the query time (a new ``now`` then
    #: invalidates every cached score); undecayed scores do not.
    DECAYS = False

    def __init__(
        self,
        prior_alpha: float = 1.0,
        prior_beta: float = 1.0,
    ) -> None:
        if prior_alpha <= 0 or prior_beta <= 0:
            raise TrustModelError("priors must be positive")
        self._prior_alpha = prior_alpha
        self._prior_beta = prior_beta
        self._table = EvidenceTable(self.COLUMNS)

    @property
    def prior(self) -> BetaBelief:
        return BetaBelief(self._prior_alpha, self._prior_beta)

    def update_many(self, observations: Sequence[TrustObservation]) -> None:
        if not observations:
            return
        n = len(observations)
        self.update_columns(
            [o.subject_id for o in observations],
            np.fromiter((o.honest for o in observations), dtype=bool, count=n),
            np.fromiter((o.weight for o in observations), dtype=np.float64, count=n),
            np.fromiter((o.timestamp for o in observations), dtype=np.float64, count=n)
            if self.DECAYS
            else None,
        )

    def update_columns(
        self,
        subject_ids: Sequence[str],
        honest: Sequence[bool],
        weights: Sequence[float],
        timestamps: Optional[Sequence[float]] = None,
    ) -> None:
        """:meth:`update_many` over columns: one row per observation.

        ``honest`` and ``weights`` (each positive) are the observations'
        fields; ``timestamps`` is required when scores decay.
        """
        if len(subject_ids):
            self._add_evidence(
                subject_ids,
                np.asarray(honest, dtype=bool),
                np.asarray(weights, dtype=np.float64),
                None if timestamps is None else np.asarray(timestamps, dtype=np.float64),
            )

    def _add_evidence(
        self,
        keys: Sequence[Any],
        honest: np.ndarray,
        weights: np.ndarray,
        timestamps: Optional[np.ndarray],
    ) -> np.ndarray:
        """Add each observation's evidence to the row interned for its key.

        The columnar core under :meth:`update_columns`, whose keys are the
        subject ids; the community table
        (:class:`~repro.trust.community.CommunityBetaTable`) passes
        ``(observer, subject)`` pair keys instead.  Returns the rows.
        """
        self._record_update(len(keys))
        table = self._table
        idx = table.intern_many(keys)
        touched = np.unique(idx)
        weights = self._evidence_weights(idx, touched, weights, timestamps)
        np.add.at(table["alpha"], idx[honest], weights[honest])
        np.add.at(table["beta"], idx[~honest], weights[~honest])
        np.add.at(table["count"], idx, 1)
        table.invalidate(touched)
        return idx

    def _evidence_weights(
        self,
        idx: np.ndarray,
        touched: np.ndarray,
        weights: np.ndarray,
        timestamps: Optional[np.ndarray],
    ) -> np.ndarray:
        """Evidence each observation adds to its row (undecayed: its weight)."""
        return weights

    def _decay_factor(
        self, rows: np.ndarray, now: Optional[float]
    ) -> Optional[np.ndarray]:
        """Per-row factor applied to stored evidence at ``now`` (none here)."""
        return None

    def _posterior(
        self, rows: np.ndarray, now: Optional[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior ``(alpha, beta)`` of known ``rows`` at ``now``."""
        alpha = self._table["alpha"][rows]
        beta = self._table["beta"][rows]
        factor = self._decay_factor(rows, now)
        if factor is not None:
            alpha = alpha * factor
            beta = beta * factor
        return self._prior_alpha + alpha, self._prior_beta + beta

    def beliefs_for(
        self, subject_ids: Sequence[str], now: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior ``(alpha, beta)`` vectors aligned with ``subject_ids``."""
        rows = self._table.index.lookup_many(subject_ids)
        alpha = np.full(len(rows), self._prior_alpha)
        beta = np.full(len(rows), self._prior_beta)
        known = rows >= 0
        if known.any():
            alpha[known], beta[known] = self._posterior(rows[known], now)
        return alpha, beta

    def _row_scores(self, rows: np.ndarray, now: Optional[float]) -> np.ndarray:
        """Uncached per-row score formula (the dirty-row recompute kernel)."""
        alpha, beta = self._posterior(rows, now)
        return alpha / (alpha + beta)

    def scores_for(
        self, subject_ids: Sequence[str], now: Optional[float] = None
    ) -> np.ndarray:
        self._record_query(len(subject_ids))
        table = self._table
        return table.cached_scores(
            table.index.lookup_many(subject_ids),
            self._prior_alpha / (self._prior_alpha + self._prior_beta),
            lambda stale: self._row_scores(stale, now),
            key=now if self.DECAYS else None,
        )

    def aggregate_witness_reports(
        self,
        subject_ids: Sequence[str],
        witness_belief_matrix: np.ndarray,
        discount_vector: np.ndarray,
        now: Optional[float] = None,
    ) -> np.ndarray:
        # Witness reports are taken at face value at their reported counts;
        # only the backend's *direct* evidence is decayed to ``now``.
        alpha, beta = self.beliefs_for(subject_ids, now=now)
        alpha, beta = combine_beta_evidence_matrix(
            alpha, beta, witness_belief_matrix, discount_vector
        )
        return alpha / (alpha + beta)

    def belief(self, subject_id: str, now: Optional[float] = None) -> BetaBelief:
        """Posterior :class:`BetaBelief` (prior when the subject is unknown).

        The scalar read witnesses answer from, so it stays on scalar
        indexing rather than the batch path.
        """
        row = self._table.index.get(subject_id)
        if row is None:
            return self.prior
        alpha = float(self._table["alpha"][row])
        beta = float(self._table["beta"][row])
        factor = self._decay_factor(np.array([row]), now) if self.DECAYS else None
        if factor is not None:
            alpha, beta = alpha * float(factor[0]), beta * float(factor[0])
        return BetaBelief(self._prior_alpha + alpha, self._prior_beta + beta)

    def observation_count(self, subject_id: str) -> int:
        row = self._table.index.get(subject_id)
        return 0 if row is None else int(self._table["count"][row])

    def known_subjects(self) -> Tuple[str, ...]:
        return self._table.index.names()

    def row_count(self) -> int:
        return len(self._table)

    def _config_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        yield "prior", np.array([self._prior_alpha, self._prior_beta])

    def _restore_config(self, state: Dict[str, np.ndarray]) -> None:
        self._prior_alpha, self._prior_beta = (float(p) for p in state["prior"])

    def snapshot_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        yield "backend", np.array(self.name)
        yield "peer_ids", self._table.peer_ids()
        yield from self._config_items()
        yield from self._table.column_items()

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        self._check_snapshot_backend(state)
        self._restore_config(state)
        self._table.restore(state)


class DecayTrustBackend(BetaTrustBackend):
    """Beta trust with exponential evidence decay, updated online in O(1).

    Keeps, per subject, the honest/dishonest evidence sums *normalised at the
    newest observation's timestamp* (the subject's reference time, the extra
    ``ref`` column).  Because exponential decay is multiplicative, the
    accumulators can be renormalised incrementally — no observation log and
    no rescan.  Scoring at ``now`` applies one further decay factor
    ``0.5 ** ((now - ref) / half_life)``.

    Equivalent to ``BetaTrustModel(decay=ExponentialDecay(half_life))``
    queried at any ``now >= ref``; scoring with ``now=None`` evaluates at the
    reference time (the newest evidence).

    Decayed scores depend on the query time, so the score cache is keyed by
    ``now``: a query at a new ``now`` lazily recomputes only the rows it
    actually touches.
    """

    name = "decay"

    COLUMNS = ("alpha", "beta", "ref", "count")
    DECAYS = True

    def __init__(
        self,
        prior_alpha: float = 1.0,
        prior_beta: float = 1.0,
        half_life: float = 100.0,
    ) -> None:
        super().__init__(prior_alpha, prior_beta)
        if half_life <= 0:
            raise TrustModelError(f"half_life must be > 0, got {half_life}")
        self._half_life = half_life

    @property
    def half_life(self) -> float:
        return self._half_life

    def _evidence_weights(
        self,
        idx: np.ndarray,
        touched: np.ndarray,
        weights: np.ndarray,
        timestamps: Optional[np.ndarray],
    ) -> np.ndarray:
        # Advance each touched subject's reference time to the newest
        # timestamp seen, renormalising the existing accumulators, then add
        # every observation decayed from its own timestamp to the new
        # reference.  The result is order-independent, so the whole batch
        # vectorizes.
        if timestamps is None:
            raise TrustModelError("decaying evidence needs its timestamps")
        times = np.asarray(timestamps, dtype=np.float64)
        ref = self._table["ref"]
        old_ref = ref[touched]
        np.maximum.at(ref, idx, times)
        factor = np.power(0.5, (ref[touched] - old_ref) / self._half_life)
        self._table["alpha"][touched] *= factor
        self._table["beta"][touched] *= factor
        return weights * np.power(0.5, (ref[idx] - times) / self._half_life)

    def _decay_factor(
        self, rows: np.ndarray, now: Optional[float]
    ) -> Optional[np.ndarray]:
        if now is None:
            return None
        age = np.maximum(0.0, now - self._table["ref"][rows])
        return np.power(0.5, age / self._half_life)

    def _config_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        yield from super()._config_items()
        yield "half_life", np.array([self._half_life])

    def _restore_config(self, state: Dict[str, np.ndarray]) -> None:
        super()._restore_config(state)
        self._half_life = float(state["half_life"][0])


class ComplaintTrustBackend(TrustBackend):
    """Vectorized complaint-based trust (Aberer & Despotovic, CIKM 2001).

    Maintains per-agent complaints-received / complaints-filed counters in
    numpy arrays and maps the configured decision metric to a ``[0, 1]``
    trust value exactly like
    :class:`~repro.trust.complaint.ComplaintTrustModel` (exponential decay
    around the community median reference).

    The backend owns its evidence: the counter table plus the complaint
    log in filing order, which :meth:`all_complaints` and the snapshot
    expose.  One backend shared by every peer is the community's complaint
    store; every write updates the counters incrementally.
    """

    name = "complaint"

    METRIC_MODES = ("product", "received", "balanced")

    #: Counter columns, in snapshot order.
    COLUMNS: Tuple[str, ...] = ("received", "filed", "in_store")

    def __init__(
        self,
        tolerance_factor: float = 4.0,
        trust_scale: float = 3.0,
        metric_mode: str = "product",
    ) -> None:
        if tolerance_factor <= 0:
            raise TrustModelError(
                f"tolerance_factor must be > 0, got {tolerance_factor}"
            )
        if trust_scale <= 0:
            raise TrustModelError(f"trust_scale must be > 0, got {trust_scale}")
        if metric_mode not in self.METRIC_MODES:
            raise TrustModelError(
                f"metric_mode must be one of {self.METRIC_MODES}, got {metric_mode!r}"
            )
        self._tolerance_factor = tolerance_factor
        self._trust_scale = trust_scale
        self._metric_mode = metric_mode
        self._row_filter: Optional[Callable[[str], bool]] = None
        self._table = EvidenceTable(self.COLUMNS)
        self._reference_cache: Optional[float] = None
        self._log: List[Complaint] = []

    # -- configuration ---------------------------------------------------
    @property
    def tolerance_factor(self) -> float:
        return self._tolerance_factor

    @property
    def metric_mode(self) -> str:
        return self._metric_mode

    def restrict_rows(self, row_filter: Callable[[str], bool]) -> None:
        """Maintain complaint counters only for agents passing ``row_filter``.

        A sharded deployment delivers each complaint to both involved peers'
        home shards (so every home row sees all its evidence), which would
        leave half-counted *foreign* rows behind; restricting each shard to
        its own peer-id range keeps the counter arrays, the in-store agent
        set and therefore the community-reference metric exactly the home
        partition.  The complaint log still keeps every delivered complaint.
        Must be configured before any evidence arrives.
        """
        if self._log:
            raise TrustModelError(
                "restrict_rows must be configured before evidence arrives"
            )
        self._row_filter = row_filter

    # -- writes ----------------------------------------------------------
    def file_complaint(self, complaint: Complaint) -> None:
        self._ingest((complaint,))

    def update_many(self, observations: Sequence[TrustObservation]) -> None:
        self._record_update(len(observations))
        complaints = [
            Complaint(
                complainant_id=o.observer_id,
                accused_id=o.subject_id,
                timestamp=o.timestamp,
            )
            for o in observations
            if o.complaint_filed and o.observer_id != o.subject_id
        ]
        if complaints:
            self._ingest(complaints)

    def record_complaints(
        self,
        complaints: Sequence[Complaint],
        batches: Optional[Sequence[int]] = None,
    ) -> None:
        """Ingest ready-made complaints as one write.

        ``batches`` tags each complaint, in non-decreasing order, with the
        write batch it stands for: the store then ends exactly as one
        write per batch would leave it (log order and the order unseen
        agents are interned in alike).  Untagged complaints are one batch.
        """
        self._record_update(len(complaints))
        if complaints:
            self._ingest(complaints, batches)

    def refile(self, complaints: Sequence[Complaint]) -> None:
        """Ingest complaints moved here from another store (a shard split
        or a re-sharded restore): the state changes as under
        :meth:`record_complaints`, but moving evidence is not a write, so
        none is tallied."""
        if complaints:
            self._ingest(complaints)

    def _ingest(
        self,
        complaints: Sequence[Complaint],
        batches: Optional[Sequence[int]] = None,
    ) -> None:
        """Log complaints and add them to the counters."""
        self._log.extend(complaints)
        accused, filed_by = self._count(complaints, batches)
        in_store = self._table["in_store"]
        in_store[accused] = True
        in_store[filed_by] = True
        self._reference_cache = None

    def _count(
        self,
        complaints: Sequence[Complaint],
        batches: Optional[Sequence[int]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Add complaints to the received/filed counters; return the rows hit.

        Agents failing the row filter are skipped.  Unseen agents are
        interned batch by batch: each batch's accused first, then its
        complainants, in complaint order.
        """
        accused_ids = [c.accused_id for c in complaints]
        filed_ids = [c.complainant_id for c in complaints]
        accused_tags = filed_tags = batches
        row_filter = self._row_filter
        if row_filter is not None:
            keep_accused = [row_filter(agent) for agent in accused_ids]
            keep_filed = [row_filter(agent) for agent in filed_ids]
            accused_ids = list(itertools.compress(accused_ids, keep_accused))
            filed_ids = list(itertools.compress(filed_ids, keep_filed))
            if batches is not None:
                accused_tags = list(itertools.compress(batches, keep_accused))
                filed_tags = list(itertools.compress(batches, keep_filed))
        table = self._table
        if accused_tags is not None and filed_tags is not None:
            names = accused_ids + filed_ids
            sides = [0] * len(accused_ids) + [1] * len(filed_ids)
            order = np.lexsort((sides, list(accused_tags) + list(filed_tags)))
            table.intern_many([names[position] for position in order.tolist()])
        accused = table.intern_many(accused_ids)
        filed_by = table.intern_many(filed_ids)
        np.add.at(table["received"], accused, 1.0)
        np.add.at(table["filed"], filed_by, 1.0)
        return accused, filed_by

    # -- assessment -------------------------------------------------------
    def _metric_of(self, received: np.ndarray, filed: np.ndarray) -> np.ndarray:
        """The configured decision metric over count vectors."""
        if self._metric_mode == "product":
            return received * filed
        if self._metric_mode == "received":
            return received.copy()
        return received * (1.0 + filed)

    def _in_store_metrics(self) -> np.ndarray:
        table = self._table
        size = len(table)
        metrics = self._metric_of(table["received"][:size], table["filed"][:size])
        return metrics[table["in_store"][:size]]

    def _counts_of(self, subject_ids: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """``(received, filed)`` count vectors, zero for unknown subjects.

        Only the queried rows are gathered, so a query against a
        million-row table costs O(query), not O(table).
        """
        rows = self._table.index.lookup_many(subject_ids)
        received = np.zeros(len(rows))
        filed = np.zeros(len(rows))
        known = rows >= 0
        received[known] = self._table["received"][rows[known]]
        filed[known] = self._table["filed"][rows[known]]
        return received, filed

    def scores_from_metrics(
        self, metrics: np.ndarray, reference: float
    ) -> np.ndarray:
        """Map metrics to trust values against an *explicit* reference.

        Sharded deployments compute the community median over every shard's
        home subjects and hand it back in, so per-shard scoring does not use
        a partition-local (and therefore wrong) reference.
        """
        scale = self._trust_scale * max(1.0, reference)
        return np.exp(-metrics / scale)

    def decisions_from_metrics(
        self, metrics: np.ndarray, reference: float
    ) -> np.ndarray:
        """The vectorized binary Aberer–Despotovic rule for explicit inputs."""
        if reference > 0:
            return metrics <= self._tolerance_factor * reference
        return metrics <= self._tolerance_factor

    def metrics_for(self, subject_ids: Sequence[str]) -> np.ndarray:
        """Per-subject decision metrics (0 for unknown subjects)."""
        return self._metric_of(*self._counts_of(subject_ids))

    def metric_values_in_store(self) -> np.ndarray:
        """Metric values of every in-store agent (the median's input)."""
        return self._in_store_metrics()

    def reference_metric(self) -> float:
        """The community's median complaint metric (0 when no data)."""
        return self._reference()

    def _reference(self) -> float:
        # The median is the one whole-table pass on the query path; it only
        # changes when evidence does, so it is cached until the next write
        # (or restore) invalidates it.
        if self._reference_cache is None:
            metrics = self._in_store_metrics()
            self._reference_cache = float(np.median(metrics)) if metrics.size else 0.0
        return self._reference_cache

    def counts(self, agent_id: str) -> Tuple[int, int]:
        """``(received, filed)`` complaint counts for one agent."""
        row = self._table.index.get(agent_id)
        if row is None:
            return (0, 0)
        return (
            int(self._table["received"][row]),
            int(self._table["filed"][row]),
        )

    def scores_for(
        self, subject_ids: Sequence[str], now: Optional[float] = None
    ) -> np.ndarray:
        self._record_query(len(subject_ids))
        metrics = self.metrics_for(subject_ids)
        return self.scores_from_metrics(metrics, self._reference())

    def witness_metrics_for(
        self,
        subject_ids: Sequence[str],
        witness_belief_matrix: np.ndarray,
        discount_vector: np.ndarray,
    ) -> np.ndarray:
        """Decision metrics over own counts plus discounted witness counts."""
        matrix, discounts = validate_witness_matrix(
            len(subject_ids), witness_belief_matrix, discount_vector, positive=False
        )
        received, filed = self._counts_of(subject_ids)
        if matrix.shape[0] > 0:
            reported = witness_report_sums(matrix, discounts)
            received = received + reported[:, 0]
            filed = filed + reported[:, 1]
        return self._metric_of(received, filed)

    def aggregate_witness_reports(
        self,
        subject_ids: Sequence[str],
        witness_belief_matrix: np.ndarray,
        discount_vector: np.ndarray,
        now: Optional[float] = None,
    ) -> np.ndarray:
        """Trust from witness-reported complaint counts, discounted per witness.

        Each witness reports ``(received, filed)`` complaint counts about
        every queried subject (the data a replica of the distributed
        complaint store would hand back).  The aggregate is the backend's
        *own* counters plus the discount-scaled sum of the reports —
        complaints are purely negative evidence, so trusted reports can only
        add to the count while a distrusted (or zero-trust) witness
        contributes nothing, and no report can whitewash complaints the
        backend already holds.  The aggregated counts then pass through the
        same metric → ``exp`` mapping as :meth:`scores_for`, against the
        backend's current community reference.  With no reports the query
        equals :meth:`scores_for`.
        """
        metrics = self.witness_metrics_for(
            subject_ids, witness_belief_matrix, discount_vector
        )
        return self.scores_from_metrics(metrics, self._reference())

    def trust_decisions(
        self,
        subject_ids: Sequence[str],
        threshold: float = 0.5,
        now: Optional[float] = None,
    ) -> np.ndarray:
        """Batched binary decisions against the community median.

        ``threshold`` is ignored: the complaint scheme's rule is relative to
        the median metric, not an absolute trust level.
        """
        metrics = self.metrics_for(subject_ids)
        return self.decisions_from_metrics(metrics, self._reference())

    def trustworthy(self, subject_id: str) -> bool:
        """The binary Aberer–Despotovic decision against the community median."""
        return bool(self.trust_decisions((subject_id,))[0])

    def known_subjects(self) -> Tuple[str, ...]:
        table = self._table
        names = table.index.names()
        in_store = table["in_store"][: len(table)]
        return tuple(names[row] for row in np.flatnonzero(in_store))

    def row_count(self) -> int:
        table = self._table
        return int(np.count_nonzero(table["in_store"][: len(table)]))

    def all_complaints(self) -> Tuple[Complaint, ...]:
        """Every complaint the backend holds, in filing order."""
        return tuple(self._log)

    def snapshot_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Counters plus the full complaint log (needed for the round-trip)."""
        yield "backend", np.array(self.name)
        yield "peer_ids", self._table.peer_ids()
        yield "config", np.array([self._tolerance_factor, self._trust_scale])
        yield "metric_mode", np.array(self._metric_mode)
        yield from self._table.column_items()
        yield from complaint_log_items(self._log)

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        """Replace the counters and the complaint log with a snapshot's."""
        self._check_snapshot_backend(state)
        self._tolerance_factor, self._trust_scale = (
            float(v) for v in state["config"]
        )
        self._metric_mode = str(np.asarray(state["metric_mode"]).item())
        self._table.restore(state)
        self._reference_cache = None
        self._log = complaints_from_snapshot(state)


def complaint_log_items(
    complaints: Sequence[Complaint],
) -> Iterator[Tuple[str, np.ndarray]]:
    """A complaint log as the snapshot's three log columns, in filing order."""
    yield "complainants", np.array([c.complainant_id for c in complaints], dtype=object)
    yield "accused", np.array([c.accused_id for c in complaints], dtype=object)
    yield "timestamps", np.array([c.timestamp for c in complaints])


def complaints_from_snapshot(state: Mapping[str, np.ndarray]) -> List[Complaint]:
    """The complaint log held in a snapshot's log columns, in filing order."""
    return [
        Complaint(complainant_id=str(c), accused_id=str(a), timestamp=float(t))
        for c, a, t in zip(state["complainants"], state["accused"], state["timestamps"])
    ]


class ScalarBetaBackendAdapter(TrustBackend):
    """Adapts a scalar :class:`BetaTrustModel` to the backend interface.

    A reference only: the scalar baseline of the batched-versus-scalar
    benchmarks and agreement tests.  No simulation path builds one.  Every
    batch method degrades to a Python loop over the wrapped model.
    """

    name = "scalar-beta"

    def __init__(self, model: Optional[BetaTrustModel] = None) -> None:
        self._model = model if model is not None else BetaTrustModel()

    @property
    def model(self) -> BetaTrustModel:
        return self._model

    def update_many(self, observations: Sequence[TrustObservation]) -> None:
        for observation in observations:
            self._model.record_outcome(
                subject_id=observation.subject_id,
                honest=observation.honest,
                observer_id=observation.observer_id,
                timestamp=observation.timestamp,
                weight=observation.weight,
            )

    def scores_for(
        self, subject_ids: Sequence[str], now: Optional[float] = None
    ) -> np.ndarray:
        return np.fromiter(
            (self._model.trust(subject_id, now=now) for subject_id in subject_ids),
            dtype=np.float64,
            count=len(subject_ids),
        )

    def aggregate_witness_reports(
        self,
        subject_ids: Sequence[str],
        witness_belief_matrix: np.ndarray,
        discount_vector: np.ndarray,
        now: Optional[float] = None,
    ) -> np.ndarray:
        """Scalar reference: fold the matrix through ``combine_beta_evidence``.

        One Python-level merge per (witness, subject) pair — the pre-refactor
        data path, kept as the agreement oracle and benchmark baseline.
        """
        matrix, discounts = validate_witness_matrix(
            len(subject_ids), witness_belief_matrix, discount_vector
        )
        scores = np.zeros(len(subject_ids))
        for column, subject_id in enumerate(subject_ids):
            reports = [
                WitnessReport(
                    witness_id=f"witness-{row}",
                    belief=BetaBelief(
                        float(matrix[row, column, 0]), float(matrix[row, column, 1])
                    ),
                    witness_trust=float(discounts[row]),
                )
                for row in range(matrix.shape[0])
            ]
            combined = combine_beta_evidence(
                self._model.belief(subject_id, now=now), reports  # repro: allow(PERF001) — scalar reference adapter; the batched backends are the fast path
            )
            scores[column] = combined.mean
        return scores

    def belief(self, subject_id: str, now: Optional[float] = None) -> BetaBelief:
        return self._model.belief(subject_id, now=now)

    def trust(self, subject_id: str, now: Optional[float] = None) -> float:
        return self._model.trust(subject_id, now=now)

    def observation_count(self, subject_id: str) -> int:
        return self._model.observation_count(subject_id)

    def known_subjects(self) -> Tuple[str, ...]:
        return self._model.known_subjects()


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
_BACKEND_FACTORIES: Dict[str, Callable[..., TrustBackend]] = {}

#: The built-in, simulation-ready backends (in registration order).
BACKEND_NAMES = ("beta", "complaint", "decay")


def register_backend(
    name: str, factory: Callable[..., TrustBackend], replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called with the keyword parameters handed to
    :func:`create_backend`.  Re-registering an existing name requires
    ``replace=True`` so typos do not silently shadow built-ins.
    """
    if not name:
        raise TrustModelError("backend name must be non-empty")
    if name in _BACKEND_FACTORIES and not replace:
        raise TrustModelError(f"backend {name!r} is already registered")
    _BACKEND_FACTORIES[name] = factory


def create_backend(name: str, **params: object) -> TrustBackend:
    """Instantiate a registered backend by name.

    ``shards=N`` (with an optional ``router="hash"|"range"|"ring"``) wraps
    a ``complaint`` backend in a
    :class:`~repro.trust.sharding.ShardedBackend` partitioning the peer-id
    space across ``N`` inner complaint backends; ``shards=1`` (the default)
    returns the plain backend.  ``rebalance`` accepts a
    :class:`~repro.trust.sharding.RebalancePolicy` enabling live shard
    splits under load — with a policy the backend is sharded even at
    ``shards=1``, so a single-shard deployment can grow in place as its
    population does.

    Sharding and rebalance apply to the ``complaint`` kind only — it is
    the community's shared store; any other kind raises
    :class:`~repro.exceptions.TrustModelError`.

    All remaining keyword parameters are forwarded to the backend factory
    (and, when sharded, to every shard).
    """
    shards = int(params.pop("shards", 1))  # type: ignore[arg-type]
    router = params.pop("router", "hash")
    rebalance = params.pop("rebalance", None)
    if shards < 1:
        raise TrustModelError(f"shards must be >= 1, got {shards}")
    factory = _BACKEND_FACTORIES.get(name)
    if factory is None:
        raise TrustModelError(
            f"unknown trust backend {name!r}; registered: {backend_names()}"
        )
    if (shards > 1 or rebalance is not None) and name != "complaint":
        raise TrustModelError(
            "only the complaint store can be sharded or rebalanced; "
            f"got backend kind {name!r}"
        )
    if shards > 1 or rebalance is not None:
        from repro.trust.sharding import ShardedBackend

        return ShardedBackend(shards, router=router, rebalance=rebalance, **params)
    return factory(**params)


def backend_names() -> Tuple[str, ...]:
    """Names of all registered backends, in registration order."""
    return tuple(_BACKEND_FACTORIES)


register_backend("beta", BetaTrustBackend)
register_backend("complaint", ComplaintTrustBackend)
register_backend("decay", DecayTrustBackend)
register_backend("scalar-beta", ScalarBetaBackendAdapter)
