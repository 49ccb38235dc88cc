"""A community member: behaviour, trust backends and risk attitude."""

from __future__ import annotations

import functools
import random
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.core.exchange import Role
from repro.exceptions import SimulationError
from repro.reputation.records import InteractionRecord
from repro.simulation.behaviors import (
    BehaviorModel,
    HonestBehavior,
    TruthfulWitness,
    WitnessReportPolicy,
)
from repro.trust import (
    BetaBelief,
    CommunityBetaTable,
    TrustBackend,
    TrustObservation,
    combine_beta_evidence_matrix,
    create_backend,
    stack_witness_beliefs,
)

__all__ = ["CommunityPeer", "TrustMethod", "trust_in_pairs", "witness_reports_for"]

_Read = TypeVar("_Read")
_Owner = TypeVar("_Owner")

#: A witness report on the wire: ``(subject_id, alpha, beta)``.
WitnessReport = Tuple[str, float, float]


class TrustMethod:
    """Names of the trust estimation methods a peer can use.

    ``BETA``, ``COMPLAINT`` and ``DECAY`` select the corresponding
    :class:`~repro.trust.backend.TrustBackend`; ``COMBINED`` is the
    conservative minimum of the beta and complaint estimates.
    """

    BETA = "beta"
    COMPLAINT = "complaint"
    COMBINED = "combined"
    DECAY = "decay"

    ALL = (BETA, COMPLAINT, COMBINED, DECAY)

    _READS = {
        BETA: (BETA,),
        COMPLAINT: (COMPLAINT,),
        COMBINED: (BETA, COMPLAINT),
        DECAY: (DECAY,),
    }

    @classmethod
    def reads_of(cls, method: str) -> Tuple[str, ...]:
        """The backend reads whose minimum is ``method``'s trust."""
        try:
            return cls._READS[method]
        except KeyError:
            raise SimulationError(
                f"unknown trust method {method!r}; valid names: {cls.ALL}"
            ) from None


class CommunityPeer:
    """One member of the simulated online community.

    A peer bundles the three per-member pieces of the reference model
    (Figure 1 of the paper): its actual behaviour (ground truth, used when
    executing exchanges), its trust state, and the economic parameters the
    decision layer needs (its reputation continuation value, i.e. how much
    future business a defection would destroy for it).

    The trust state answers each :class:`TrustMethod`.  BETA evidence
    lives in a :class:`~repro.trust.community.CommunityBetaTable` under
    the peer's gid there: a simulation moves every peer it registers into
    its one community table (:meth:`join_table`), and a peer used outside
    a simulation builds a private table on first use.
    :meth:`backend_for` ``("beta")`` copies the peer's cells into a plain
    beta backend.  The ``complaint`` backend is ``complaint_store``, the
    community's shared one, or else a private balanced-metric backend; the
    ``decay`` backend (half-life 100) is built on the first DECAY read from
    the replayed outcome history — most peers never read it.
    """

    def __init__(
        self,
        peer_id: str,
        behavior: Optional[BehaviorModel] = None,
        complaint_store: Optional[TrustBackend] = None,
        defection_penalty: float = 0.0,
        supplies_goods: bool = True,
        consumes_goods: bool = True,
        trust_method: str = TrustMethod.BETA,
        witness_policy: Optional[WitnessReportPolicy] = None,
    ):
        if not peer_id:
            raise SimulationError("peer_id must be non-empty")
        if defection_penalty < 0:
            raise SimulationError("defection_penalty must be >= 0")
        if trust_method not in TrustMethod.ALL:
            raise SimulationError(
                f"trust_method must be one of {TrustMethod.ALL}, got {trust_method!r}"
            )
        if complaint_store is None:
            complaint_store = create_backend("complaint", metric_mode="balanced")
        elif not isinstance(complaint_store, TrustBackend):
            raise SimulationError(
                "complaint_store must be a complaint TrustBackend such as "
                'create_backend("complaint", metric_mode="balanced"), got '
                f"{type(complaint_store).__name__}"
            )
        self.peer_id = peer_id
        self.behavior: BehaviorModel = behavior if behavior is not None else HonestBehavior()
        #: The beta evidence table and this peer's gid in it (see
        #: :meth:`_beta_table`).
        self._table: Optional[CommunityBetaTable] = None
        self._gid = -1
        self._complaint = complaint_store
        self._decay: Optional[TrustBackend] = None
        # Every observation this peer has made, replayed into the decay
        # backend when it is built; dropped from then on.
        self._history: List[TrustObservation] = []
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
        self._witness_matrix_cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        #: witness_id -> its gid in this peer's beta table, made on the
        #: first delivery (most peers of a run without witnesses get none).
        self._witness_gids: Optional[Dict[str, int]] = None

    def __repr__(self) -> str:
        return (
            f"CommunityPeer({self.peer_id!r}, behavior={self.behavior.describe()})"
        )

    # ------------------------------------------------------------------
    # Trust backends and the one trust-method dispatch
    # ------------------------------------------------------------------
    def _beta_table(self) -> CommunityBetaTable:
        """The table holding this peer's beta evidence (private until joined)."""
        if self._table is None:
            self.join_table(CommunityBetaTable())
        assert self._table is not None
        return self._table

    def join_table(self, table: CommunityBetaTable) -> None:
        """Keep this peer's beta evidence in ``table`` from now on.

        The peer is interned there, and the evidence it gathered so far
        (in a private table or another community's) is adopted.
        """
        if table is self._table:
            return
        gid = table.ids.intern(self.peer_id)
        if self._table is not None:
            table.adopt(gid, self._table.backend_for(self._gid))
        self._table, self._gid = table, gid
        if self._witness_gids:
            self._witness_gids = {
                witness_id: table.ids.intern(witness_id)
                for witness_id in self._witness_gids
            }
            self._witness_matrix_cache.clear()

    def backend_for(self, method: str) -> TrustBackend:
        """The backend answering ``method`` (BETA, COMPLAINT or DECAY).

        BETA returns a snapshot of the peer's beta cells (writing to it
        changes nothing); COMPLAINT and DECAY return the live backends.
        """
        if method == TrustMethod.BETA:
            return self._beta_table().backend_for(self._gid)
        if method == TrustMethod.COMPLAINT:
            return self._complaint
        if method == TrustMethod.DECAY:
            if self._decay is None:
                self._decay = create_backend("decay", half_life=100.0)
                self._decay.update_many(self._history)
                self._history = []
            return self._decay
        raise SimulationError(
            f"unknown trust method {method!r}; valid names: {TrustMethod.ALL}"
        )

    def _by_method(
        self,
        read_beta: Callable[[CommunityBetaTable], _Read],
        read_decay: Callable[[TrustBackend], _Read],
        read_complaint: Callable[[TrustBackend], _Read],
        combine: Callable[[_Read, _Read], _Read],
    ) -> _Read:
        """Answer a trust read with the peer's configured method.

        ``read_beta`` queries the beta table, ``read_decay`` the decay
        backend and ``read_complaint`` the complaint backend; the method's
        :meth:`TrustMethod.reads_of` are ``combine``d (COMBINED: the minimum
        of the beta and complaint reads).
        """
        reads = [
            read_beta(self._beta_table())
            if read == TrustMethod.BETA
            else read_complaint(self._complaint)
            if read == TrustMethod.COMPLAINT
            else read_decay(self.backend_for(read))
            for read in TrustMethod.reads_of(self.trust_method)
        ]
        return functools.reduce(combine, reads)

    def gid_of(self, partner_id: str, partner: Optional["CommunityPeer"] = None) -> int:
        """``partner_id``'s gid in this peer's beta table (-1: it has none).

        A ``partner`` peer kept in the same table answers with its own gid,
        so no name is resolved.
        """
        table = self._table
        if partner is not None and table is not None and partner._table is table:
            return partner._gid
        return self._beta_table().gid(partner_id)

    # ------------------------------------------------------------------
    # Trust interface used by the community orchestration
    # ------------------------------------------------------------------
    def trust_in(self, partner_id: str, now: Optional[float] = None) -> float:
        """Current trust estimate in a partner using the peer's configured method.

        One row of :func:`trust_in_pairs`, which holds each method's rule.
        """
        return float(
            trust_in_pairs((self,), (partner_id,), (self.gid_of(partner_id),), now)[0]
        )

    def trust_in_many(
        self, partner_ids: Sequence[str], now: Optional[float] = None
    ) -> np.ndarray:
        """Vectorized trust estimates for a batch of prospective partners.

        ``partner_ids`` may be :class:`~repro.trust.community.SubjectColumns`
        already resolved in the peer's table (the round resolves its listed
        suppliers once); plain names are resolved first.
        """
        return self._by_method(
            lambda table: table.row(self._gid, table.columns(partner_ids)),
            lambda backend: backend.scores_for(partner_ids, now=now),
            lambda complaint: complaint.scores_for(partner_ids),
            np.minimum,
        )

    def _observation_from(self, record: InteractionRecord) -> TrustObservation:
        """The record as one observation about this peer's partner."""
        if self.peer_id == record.supplier_id:
            partner_role = Role.CONSUMER
        elif self.peer_id == record.consumer_id:
            partner_role = Role.SUPPLIER
        else:
            raise SimulationError(
                f"peer {self.peer_id!r} is not a participant of the record"
            )
        return TrustObservation(
            observer_id=self.peer_id,
            subject_id=record.participant(partner_role),
            honest=record.honest(partner_role),
            timestamp=record.timestamp,
            weight=max(1.0, record.value) if record.value > 0 else 1.0,
        )

    def observe_outcome(self, record: InteractionRecord) -> None:
        """Feed an interaction outcome back into the peer's trust backends."""
        self.observe_outcomes((record,))

    def observe_outcomes(self, records: Sequence[InteractionRecord]) -> None:
        """Feed a batch of outcomes back in one flush per backend.

        Every record is converted (and checked to involve this peer) before
        any backend is written, so a bad record leaves the peer untouched.
        A partner's defection files a complaint through the complaint
        backend; the peer's own defection does not.
        """
        observations = [self._observation_from(record) for record in records]
        if not observations:
            return
        self._beta_table().observe(self._gid, observations)
        self._complaint.update_many(observations)
        if self._decay is None:
            self._history.extend(observations)
        else:
            self._decay.update_many(observations)

    def file_complaint(self, accused_id: str, timestamp: float = 0.0) -> None:
        """File a complaint about ``accused_id`` through the complaint backend.

        Used for the spurious complaints of malicious behaviour models and
        for complaints delivered by the evidence plane.
        """
        self._complaint.update(
            TrustObservation(
                observer_id=self.peer_id,
                subject_id=accused_id,
                honest=True,
                timestamp=timestamp,
                files_complaint=True,
            )
        )

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
            self.file_complaint(partner_id, timestamp=timestamp)
        return True

    # ------------------------------------------------------------------
    # Witness reporting (the second-hand half of the evidence plane)
    # ------------------------------------------------------------------
    def build_witness_reports(
        self, subject_ids: Sequence[str]
    ) -> List[WitnessReport]:
        """Answer one witness-report request about ``subject_ids``.

        Returns ``(subject_id, alpha, beta)`` triples — the peer's beta
        posterior filtered through its :class:`WitnessReportPolicy` (a
        coalition member forges here).  Subjects the peer has no first-hand
        evidence about are omitted, except that a forging policy may still
        fabricate a report about them.  The async plane answers each
        request message with it; a sync round answers all its requests at
        once through :func:`witness_reports_for`.
        """
        table = self._beta_table()
        reports: List[WitnessReport] = []
        for subject_id, key in zip(
            subject_ids, table.pair_keys(self._gid, subject_ids)
        ):
            if subject_id == self.peer_id:
                continue
            belief = table.belief(key)  # repro: allow(PERF001) — async per-message only: a request names one subject, and this scalar read costs a few µs where a one-row gather costs several times that
            reported, forged = _reported(self.witness_policy, subject_id, belief)
            if _sends(table.observation_count(key), forged):
                reports.append((subject_id, reported.alpha, reported.beta))
        return reports

    def receive_witness_reports(
        self,
        witness_id: str,
        reports: Sequence[WitnessReport],
        witness: Optional["CommunityPeer"] = None,
    ) -> None:
        """Store delivered witness reports (latest report per witness wins).

        The witness's gid in this peer's table, which its discount is read
        by, is taken from ``witness`` when the caller holds that peer and
        it keeps its evidence in the same table, else interned by name.
        """
        if self._witness_gids is None:
            self._witness_gids = {}
        if witness_id not in self._witness_gids:
            table = self._beta_table()
            self._witness_gids[witness_id] = (
                witness._gid
                if witness is not None and witness._table is table
                else table.ids.intern(witness_id)
            )
        for subject_id, alpha, beta in reports:
            self._witness_inbox.setdefault(subject_id, {})[witness_id] = (
                float(alpha),
                float(beta),
            )
            self._witness_matrix_cache.pop(subject_id, None)

    def _witness_matrix_for(self, subject_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """The inbox's reports about one subject as a (W, 1, 2) matrix,
        with the witnesses' gids, in witness-name order."""
        cached = self._witness_matrix_cache.get(subject_id)
        if cached is None:
            inbox = self._witness_inbox.get(subject_id, {})
            witness_ids = sorted(inbox)
            matrix = stack_witness_beliefs(
                [[BetaBelief(*inbox[witness_id])] for witness_id in witness_ids]
            )
            witness_gids = self._witness_gids
            assert witness_gids is not None  # every inbox entry came with one
            gids = np.array(
                [witness_gids[witness_id] for witness_id in witness_ids],
                dtype=np.int64,
            )
            cached = (gids, matrix)
            self._witness_matrix_cache[subject_id] = cached
        return cached

    def witness_reports_about(
        self, subject_id: str
    ) -> Dict[str, Tuple[float, float]]:
        """The second-hand reports currently held about one subject."""
        return dict(self._witness_inbox.get(subject_id, {}))

    def _folds_reports_about(self, partner_id: str) -> bool:
        """Whether a witness-aware read of ``partner_id`` folds in reports:
        the peer holds some about it and its method is not COMPLAINT."""
        return (
            self.trust_method != TrustMethod.COMPLAINT
            and bool(self._witness_inbox.get(partner_id))
        )

    def trust_in_with_witnesses(
        self,
        partner_id: str,
        now: Optional[float] = None,
        partner_gid: Optional[int] = None,
    ) -> float:
        """Trust in a partner, folding in received witness reports.

        Reports are assembled into a witness-belief matrix and aggregated by
        the beta-family backend in one vectorized call, each witness
        discounted by this peer's *own* current beta trust in it — the
        second-hand evidence path of the paper's reference model (COMBINED
        takes the minimum with the complaint estimate).  With an empty inbox
        (or a complaint-only trust method) this equals :meth:`trust_in`.
        ``partner_gid`` is the partner's gid in this peer's table when the
        caller knows it (:meth:`gid_of`); the beta cells of the partner and
        of every witness are then read by gid in one gather.
        """
        if not self._folds_reports_about(partner_id):
            return self.trust_in(partner_id, now=now)
        witness_gids, matrix = self._witness_matrix_for(partner_id)
        if partner_gid is None:
            partner_gid = self.gid_of(partner_id)
        alpha, beta, _ = self._beta_table().pair_beliefs(
            np.full(len(witness_gids) + 1, self._gid),
            np.append(partner_gid, witness_gids),
        )
        discounts = np.clip(alpha[1:] / (alpha[1:] + beta[1:]), 0.0, 1.0)

        def read_beta(_table: CommunityBetaTable) -> float:
            combined_alpha, combined_beta = combine_beta_evidence_matrix(
                alpha[:1], beta[:1], matrix, discounts
            )
            return float(combined_alpha[0] / (combined_alpha[0] + combined_beta[0]))

        return self._by_method(
            read_beta,
            lambda backend: float(
                backend.aggregate_witness_reports(
                    (partner_id,), matrix, discounts, now=now
                )[0]
            ),
            lambda complaint: complaint.score(partner_id),
            min,
        )

    @property
    def true_honesty(self) -> float:
        """Ground-truth honesty probability (for evaluating trust models)."""
        return self.behavior.honesty_probability


def _grouped(
    rows: Iterable[int], owners: Sequence[_Owner]
) -> List[Tuple[_Owner, List[int]]]:
    """``rows`` grouped by owner (``owners[i]`` owns the i-th row), in order."""
    if len(set(map(id, owners))) <= 1:
        return [(owners[0], list(rows))] if owners else []
    groups: Dict[int, Tuple[_Owner, List[int]]] = {}
    for row, owner in zip(rows, owners):
        groups.setdefault(id(owner), (owner, []))[1].append(row)
    return list(groups.values())


def _beliefs_of(
    observers: Sequence[CommunityPeer], subject_gids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each observer's ``pair_beliefs`` about the subject gid of its row.

    One gather per beta table (a simulation's peers share one).
    """
    tables = [observer._beta_table() for observer in observers]
    gids = np.array([observer._gid for observer in observers], dtype=np.int64)
    groups = _grouped(range(len(observers)), tables)
    if len(groups) == 1:
        return tables[0].pair_beliefs(gids, subject_gids)
    alpha, beta = np.empty(len(observers)), np.empty(len(observers))
    count = np.empty(len(observers), dtype=np.int64)
    for table, rows in groups:
        alpha[rows], beta[rows], count[rows] = table.pair_beliefs(
            gids[rows], subject_gids[rows]
        )
    return alpha, beta, count


def trust_in_pairs(
    observers: Sequence[CommunityPeer],
    subject_ids: Sequence[str],
    subject_gids: Sequence[int],
    now: Optional[float] = None,
    witnesses: bool = False,
) -> np.ndarray:
    """``observers[i].trust_in(subject_ids[i])`` for every row, batched.

    ``subject_gids[i]`` is the subject's gid in its observer's beta table
    (:meth:`CommunityPeer.gid_of`), so the beta read resolves no name.  A
    row's trust is the minimum of its method's :meth:`TrustMethod.reads_of`:
    the beta read is one ``pair_beliefs`` gather scored ``alpha / (alpha +
    beta)``; the complaint read is one ``scores_for`` per distinct
    complaint backend, the decay read one per observer's decay backend.
    With ``witnesses``, a row whose observer holds reports about its
    subject reads through ``trust_in_with_witnesses`` instead.
    """
    gids = np.asarray(subject_gids, dtype=np.int64)
    methods = [observer.trust_method for observer in observers]
    reads = {method: TrustMethod.reads_of(method) for method in set(methods)}

    def reading(source: str) -> List[int]:
        return [row for row, method in enumerate(methods) if source in reads[method]]

    scores = np.full(len(observers), np.inf)
    rows = reading(TrustMethod.BETA)
    if rows:
        alpha, beta, _ = _beliefs_of([observers[row] for row in rows], gids[rows])
        scores[rows] = alpha / (alpha + beta)
    for source in (TrustMethod.COMPLAINT, TrustMethod.DECAY):
        rows = reading(source)
        owners = [observers[row].backend_for(source) for row in rows]
        for backend, group in _grouped(rows, owners):
            scores[group] = np.minimum(
                scores[group],
                backend.scores_for([subject_ids[row] for row in group], now=now),
            )
    if witnesses:
        for row, (observer, subject_id) in enumerate(zip(observers, subject_ids)):
            if observer._folds_reports_about(subject_id):
                scores[row] = observer.trust_in_with_witnesses(
                    subject_id, now, int(gids[row])
                )
    return scores


def _reported(
    policy: WitnessReportPolicy, subject_id: str, belief: BetaBelief
) -> Tuple[BetaBelief, bool]:
    """The belief ``policy`` puts on the wire about a subject, and whether
    it is forged (a policy that never forges is not consulted)."""
    if not policy.forges:
        return belief, False
    reported = policy.report(subject_id, belief)
    return reported, reported.alpha != belief.alpha or reported.beta != belief.beta


def _sends(count: Any, forged: Any) -> Any:
    """Whether a witness sends its report (elementwise over arrays): only
    about a subject it holds first-hand evidence about, or a forged one."""
    return (count > 0) | forged


def witness_reports_for(
    witnesses: Sequence[CommunityPeer],
    subject_ids: Sequence[str],
    subject_gids: Sequence[int],
) -> List[Optional[WitnessReport]]:
    """Each witness's report about the subject of its row, or ``None``.

    The batched :meth:`CommunityPeer.build_witness_reports`, one subject a
    row: one ``pair_beliefs`` gather answers every row (``subject_gids``
    are gids in the witnesses' table), only forging witnesses' policies
    are consulted, and a row whose subject is its witness is answered
    ``None``.
    """
    alpha, beta, count = _beliefs_of(
        witnesses, np.asarray(subject_gids, dtype=np.int64)
    )
    alphas, betas = alpha.tolist(), beta.tolist()
    forged = np.zeros(len(witnesses), dtype=bool)
    for row, witness in enumerate(witnesses):
        if witness.witness_policy.forges:
            reported, forged[row] = _reported(
                witness.witness_policy,
                subject_ids[row],
                BetaBelief(alphas[row], betas[row]),
            )
            alphas[row], betas[row] = reported.alpha, reported.beta
    reports: List[Optional[WitnessReport]] = [None] * len(witnesses)
    for row in np.flatnonzero(_sends(count, forged)).tolist():
        if subject_ids[row] != witnesses[row].peer_id:
            reports[row] = (subject_ids[row], alphas[row], betas[row])
    return reports
