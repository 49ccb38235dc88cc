"""A community member: behaviour, trust backends and risk attitude."""

from __future__ import annotations

import bisect
import random
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.core.exchange import Role
from repro.exceptions import SimulationError
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
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
    Complaint,
    TrustBackend,
    TrustObservation,
    combine_beta_evidence_matrix,
    create_backend,
    stack_witness_beliefs,
)

__all__ = [
    "CommunityPeer",
    "RecordBlock",
    "TrustMethod",
    "WitnessQuestions",
    "observe_block",
    "trust_in_pairs",
    "trust_rows",
]

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
        # Every record this peer has observed, replayed into the decay
        # backend when it is built; dropped from then on.
        self._history: List[InteractionRecord] = []
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
    # Trust backends
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
                if self._history:
                    block = RecordBlock.of_peer(self, self._history)
                    self._decay.update_columns(*block.decay_columns(0, len(block)))
                self._history = []
            return self._decay
        raise SimulationError(
            f"unknown trust method {method!r}; valid names: {TrustMethod.ALL}"
        )

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

        One row of :func:`trust_rows`.  ``partner_ids`` may be
        :class:`~repro.trust.community.SubjectColumns` already resolved in
        the peer's table; plain names are resolved first.
        """
        return trust_rows((self,), partner_ids, now)[0]

    def observe_outcome(self, record: InteractionRecord) -> None:
        """Feed an interaction outcome back into the peer's trust backends."""
        self.observe_outcomes((record,))

    def observe_outcomes(self, records: Sequence[InteractionRecord]) -> None:
        """Feed a batch of outcomes back in one flush per backend.

        One batch of :func:`observe_block`.  Every record is checked to
        involve this peer before any backend is written, so a bad record
        leaves the peer untouched.  A partner's defection files a complaint
        through the complaint backend; the peer's own defection does not.
        """
        if records:
            observe_block(RecordBlock.of_peer(self, records))

    def file_complaint(self, accused_id: str, timestamp: float = 0.0) -> None:
        """File a complaint about ``accused_id`` through the complaint backend.

        Used for the spurious complaints of malicious behaviour models and
        for complaints delivered by the evidence plane.
        """
        observe_block(None, ((self, accused_id, timestamp),))

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
        once through :meth:`WitnessQuestions.answers`.
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

        reads = []
        for read in TrustMethod.reads_of(self.trust_method):
            if read == TrustMethod.BETA:
                combined_alpha, combined_beta = combine_beta_evidence_matrix(
                    alpha[:1], beta[:1], matrix, discounts
                )
                reads.append(
                    float(combined_alpha[0] / (combined_alpha[0] + combined_beta[0]))
                )
            elif read == TrustMethod.COMPLAINT:
                reads.append(self._complaint.score(partner_id))
            else:
                aggregated = self.backend_for(read).aggregate_witness_reports(
                    (partner_id,), matrix, discounts, now=now
                )
                reads.append(float(aggregated[0]))
        return min(reads)

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
    observers: Sequence[CommunityPeer],
    subject_gids: Callable[[CommunityBetaTable], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each observer's ``pair_beliefs`` about the subject of its row.

    ``subject_gids(table)`` is every row's subject gid in ``table``.  One
    gather per beta table (a simulation's peers share one).
    """
    tables = list(map(CommunityPeer._beta_table, observers))
    gids = np.fromiter(
        map(attrgetter("_gid"), observers), dtype=np.int64, count=len(observers)
    )
    groups = _grouped(range(len(observers)), tables)
    if len(groups) == 1:
        return tables[0].pair_beliefs(gids, subject_gids(tables[0]))
    alpha, beta = np.empty(len(observers)), np.empty(len(observers))
    count = np.empty(len(observers), dtype=np.int64)
    for table, rows in groups:
        alpha[rows], beta[rows], count[rows] = table.pair_beliefs(
            gids[rows], subject_gids(table)[rows]
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
        alpha, beta, _ = _beliefs_of(
            [observers[row] for row in rows], lambda table: gids[rows]
        )
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


def trust_rows(
    observers: Sequence[CommunityPeer],
    names: Sequence[str],
    now: Optional[float] = None,
    telemetry: MetricsRegistry = NULL_REGISTRY,
) -> np.ndarray:
    """``observers[i].trust_in_many(names)`` as row ``i`` of one matrix.

    ``names`` may be :class:`~repro.trust.community.SubjectColumns`
    resolved in the observers' beta table (a round resolves its listed
    suppliers once).  A row's trust is the minimum of its method's
    :meth:`TrustMethod.reads_of`, folded in that order (in place when one
    backend answers every row): the beta read is one
    :meth:`~repro.trust.community.CommunityBetaTable.rows` call per beta
    table; the complaint read is one ``scores_for`` per distinct complaint
    backend, broadcast to its rows, the decay read one per observer's decay
    backend.  A row without a beta read starts at ``inf``, which the
    minimum leaves bit for bit, NaN included.  ``match.known_cells``
    counts the cells the beta reads filled from first-hand evidence.
    """
    methods = [observer.trust_method for observer in observers]
    reads = {method: TrustMethod.reads_of(method) for method in set(methods)}

    def reading(source: str) -> List[int]:
        return [row for row, method in enumerate(methods) if source in reads[method]]

    rows = reading(TrustMethod.BETA)
    tables = [observers[row]._beta_table() for row in rows]
    gids = np.fromiter(
        map(attrgetter("_gid"), observers), dtype=np.int64, count=len(observers)
    )
    groups = _grouped(rows, tables)
    if len(groups) == 1 and len(rows) == len(observers):
        table = tables[0]
        scores, known = table.rows(gids, table.columns(names))
    else:
        scores = np.full((len(observers), len(names)), np.inf)
        known = 0
        for table, group in groups:
            scores[group], filled = table.rows(gids[group], table.columns(names))
            known += filled
    for source in (TrustMethod.COMPLAINT, TrustMethod.DECAY):
        rows = reading(source)
        owners = [observers[row].backend_for(source) for row in rows]
        for backend, group in _grouped(rows, owners):
            read = backend.scores_for(names, now=now)
            if len(group) == len(observers):
                np.minimum(scores, read, out=scores)
            else:
                scores[group] = np.minimum(scores[group], read)
    telemetry.count("match.known_cells", known)
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


class WitnessQuestions(NamedTuple):
    """Witness questions as columns over a list of parties.

    Party ``i`` is the peer id ``names[i]`` and the peer ``peers[i]``, or
    ``None`` when no registered peer has that id.  Row ``j`` asks party
    ``witnesses[j]`` about party ``subjects[j]`` on behalf of party
    ``requesters[j]``.
    """

    names: Sequence[str]
    peers: Sequence[Optional[CommunityPeer]]
    requesters: np.ndarray
    witnesses: np.ndarray
    subjects: np.ndarray

    @classmethod
    def of_rows(
        cls,
        rows: Sequence[Tuple[str, str, str]],
        peer_of: Callable[[str], Optional[CommunityPeer]],
    ) -> "WitnessQuestions":
        """``(requester, witness, subject)`` name rows as columns; ``peer_of``
        finds a party's peer (``None``: it has none)."""
        names = list(dict.fromkeys(name for row in rows for name in row))
        position = {name: index for index, name in enumerate(names)}
        columns = np.array(
            [[position[name] for name in row] for row in rows], dtype=np.int64
        ).reshape(len(rows), 3)
        return cls(names, [peer_of(name) for name in names], *columns.T)

    def answers(self) -> Tuple[np.ndarray, List[WitnessReport]]:
        """The rows whose witness sends a report, and those reports.

        The batched :meth:`CommunityPeer.build_witness_reports`, one subject
        a row.  Rows whose requester or witness has no peer get no answer;
        neither does a row whose subject is its witness.  One
        ``pair_beliefs`` gather per beta table answers every row (a
        simulation's peers share one), and only forging witnesses'
        policies are consulted.
        """
        names, peers = self.names, self.peers
        witnesses, subjects = self.witnesses, self.subjects
        has_peer = np.array([peer is not None for peer in peers], dtype=bool)
        answered = np.flatnonzero(
            has_peer[self.requesters] & has_peer[witnesses] & (subjects != witnesses)
        )
        asked = witnesses[answered].tolist()

        def subject_gids(table: CommunityBetaTable) -> np.ndarray:
            # Every party's gid in ``table``: a party kept in another table,
            # or with no peer, is resolved by name.
            gids = np.array(
                [
                    peer._gid
                    if peer is not None and peer._table is table
                    else table.gid(name)
                    for name, peer in zip(names, peers)
                ],
                dtype=np.int64,
            )
            return gids[subjects[answered]]

        # Only parties with a peer are asked (``has_peer``).
        alpha, beta, count = _beliefs_of(
            [peers[party] for party in asked], subject_gids  # type: ignore[misc]
        )
        alphas, betas = alpha.tolist(), beta.tolist()
        about = subjects[answered].tolist()
        forges = [peer is not None and peer.witness_policy.forges for peer in peers]
        forged = np.zeros(len(answered), dtype=bool)
        for index, party in enumerate(asked):
            if forges[party]:
                reported, forged[index] = _reported(
                    peers[party].witness_policy,  # type: ignore[union-attr]
                    names[about[index]],
                    BetaBelief(alphas[index], betas[index]),
                )
                alphas[index], betas[index] = reported.alpha, reported.beta
        sent = np.flatnonzero(_sends(count, forged)).tolist()
        return answered[sent], [
            (names[about[index]], alphas[index], betas[index]) for index in sent
        ]


#: A complaint filing: the filer, the accused's id and the time.
Filing = Tuple[CommunityPeer, str, float]


class RecordBlock:
    """Interaction records as first-hand evidence, one row per observation.

    Row ``i`` is an observation, by the peer of its batch, of its partner in
    ``rows[i]`` (a record): the consumer when ``consumer_side[i]`` is
    false, else the supplier.  Rows come in batches, one per observing
    peer: batch ``b`` is rows ``bounds[b]:bounds[b + 1]``, observed by
    ``peers[b]``.  ``honest`` says whether the partner was honest and
    ``weights`` is each observation's weight; :meth:`gids` places the rows
    in the observers' beta table.
    """

    def __init__(
        self,
        rows: List[InteractionRecord],
        consumer_side: List[bool],
        peers: Sequence[CommunityPeer],
        bounds: List[int],
        gids: Optional[Tuple[CommunityBetaTable, List[int], List[int]]] = None,
    ):
        self.rows = rows
        self.consumer_side = consumer_side
        self.peers = peers
        self.bounds = bounds
        self._gids = gids
        self.honest = [
            record.supplier_honest if side else record.consumer_honest
            for record, side in zip(rows, consumer_side)
        ]
        # A record's value is the weight at stake, and at least 1.
        self.weights = [
            max(1.0, record.value) if record.value > 0 else 1.0 for record in rows
        ]

    @classmethod
    def of_round(
        cls,
        table: CommunityBetaTable,
        records: Sequence[InteractionRecord],
        suppliers: Sequence[CommunityPeer],
        consumers: Sequence[CommunityPeer],
    ) -> "RecordBlock":
        """Both sides of every record, whose peers all keep their evidence in
        ``table``: one batch per peer, peers by first appearance (each
        record's supplier before its consumer), a batch's rows in record
        order."""
        observers = [peer for pair in zip(suppliers, consumers) for peer in pair]
        gids = np.fromiter(
            (peer._gid for peer in observers), dtype=np.int64, count=len(observers)
        )
        _, first, batch = np.unique(gids, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        batch = rank[batch.reshape(-1)]
        # Row 2r observes record r from its supplier, row 2r + 1 from its
        # consumer.
        rows = np.argsort(batch, kind="stable")
        return cls(
            [records[index] for index in (rows >> 1).tolist()],
            (rows & 1).astype(bool).tolist(),
            [observers[row] for row in np.sort(first).tolist()],
            np.concatenate(([0], np.cumsum(np.bincount(batch)))).tolist(),
            (table, gids[rows].tolist(), gids[rows ^ 1].tolist()),
        )

    @classmethod
    def of_peer(
        cls, peer: CommunityPeer, records: Sequence[InteractionRecord]
    ) -> "RecordBlock":
        """One batch: ``peer`` observes its partner in each record.

        Raises :class:`SimulationError` when the peer takes part in some
        record neither as supplier nor as consumer.
        """
        consumer_side = []
        for record in records:
            if peer.peer_id == record.supplier_id:
                consumer_side.append(False)
            elif peer.peer_id == record.consumer_id:
                consumer_side.append(True)
            else:
                raise SimulationError(
                    f"peer {peer.peer_id!r} is not a participant of the record"
                )
        return cls(list(records), consumer_side, [peer], [0, len(records)])

    def __len__(self) -> int:
        return len(self.rows)

    def gids(self) -> Tuple[CommunityBetaTable, List[int], List[int]]:
        """The observers' beta table, and each row's observer and partner
        gids there (a one-batch block resolves them on first use)."""
        if self._gids is None:
            (peer,) = self.peers
            table = peer._beta_table()
            self._gids = (
                table,
                [peer._gid] * len(self.rows),
                list(map(table.ids.intern, self.partner_ids(0, len(self.rows)))),
            )
        return self._gids

    def batches(self) -> Iterator[Tuple[CommunityPeer, int, int]]:
        """Each batch's peer and its first and past-the-end rows."""
        return zip(self.peers, self.bounds[:-1], self.bounds[1:])

    def partner_ids(self, start: int, end: int) -> List[str]:
        """The ids of the partners rows ``start:end`` observe."""
        return [
            record.supplier_id if side else record.consumer_id
            for record, side in zip(
                self.rows[start:end], self.consumer_side[start:end]
            )
        ]

    def decay_columns(
        self, start: int, end: int
    ) -> Tuple[List[str], List[bool], List[float], List[float]]:
        """Rows ``start:end`` as ``update_columns`` arguments of a decay
        backend: partner ids, honest, weights and timestamps."""
        return (
            self.partner_ids(start, end),
            self.honest[start:end],
            self.weights[start:end],
            [record.timestamp for record in self.rows[start:end]],
        )

    def complaints(self) -> List[Tuple[CommunityPeer, int, Complaint]]:
        """Each complaint the block files, with its filer and batch: one per
        row whose partner was dishonest, filed by its observer against that
        partner (no peer complains about itself)."""
        filed: List[Tuple[CommunityPeer, int, Complaint]] = []
        rows, consumer_side, bounds = self.rows, self.consumer_side, self.bounds
        for row, honest in enumerate(self.honest):
            if not honest:
                batch = bisect.bisect_right(bounds, row) - 1
                filer = self.peers[batch]
                record = rows[row]
                partner_id = (
                    record.supplier_id if consumer_side[row] else record.consumer_id
                )
                if partner_id != filer.peer_id:
                    filed.append(
                        (filer, batch, Complaint(filer.peer_id, partner_id, record.timestamp))
                    )
        return filed


def observe_block(
    block: Optional[RecordBlock], filings: Sequence[Filing] = ()
) -> None:
    """Write a block of evidence and complaint filings to the peers' stores.

    The one evidence writer: the state equals one write per batch, in
    batch order, followed by one complaint per filing.  The block is one
    queued write to the beta table; a peer whose decay backend is built
    gets its batch as one write there, and any other peer keeps its records
    for that backend; every complaint backend gets one write of its
    complaints (the dishonest partners', then the filings), tagged with
    their batches when there are several (each filing is a batch of its
    own, after the block's).
    """
    filed: List[Tuple[CommunityPeer, int, Complaint]] = []
    first_filing = 0
    if block is not None:
        table, observer_gids, subject_gids = block.gids()
        table.observe_columns(observer_gids, subject_gids, block.honest, block.weights)
        for peer, start, end in block.batches():
            if peer._decay is None:
                peer._history.extend(block.rows[start:end])
            else:
                peer._decay.update_columns(*block.decay_columns(start, end))
        filed = block.complaints()
        first_filing = len(block.peers)
    for offset, (filer, accused_id, timestamp) in enumerate(filings):
        if accused_id != filer.peer_id:  # no peer complains about itself
            filed.append(
                (filer, first_filing + offset, Complaint(filer.peer_id, accused_id, timestamp))
            )
    stores: Dict[int, Tuple[TrustBackend, List[Complaint], List[int]]] = {}
    for filer, batch, complaint in filed:
        store = stores.get(id(filer._complaint))
        if store is None:
            store = stores[id(filer._complaint)] = (filer._complaint, [], [])
        store[1].append(complaint)
        store[2].append(batch)
    for store_backend, complaints, batches in stores.values():
        store_backend.record_complaints(
            complaints, batches if batches[0] != batches[-1] else None
        )
