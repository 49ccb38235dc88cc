"""Reputation stores: where ratings and complaints are kept.

Two implementations of the same interface are provided:

* :class:`LocalReputationStore` — a plain in-memory store, modelling either a
  central reputation authority or the peer's own private records.
* :class:`DistributedReputationStore` — stores every record in a
  :class:`~repro.pgrid.network.PGridNetwork`, keyed by the subject (for data
  *about* an agent) and by the author (for data *filed by* an agent), which
  is how the complaint-based trust model of Aberer & Despotovic distributes
  its evidence.  The distributed store also implements the
  :class:`~repro.trust.complaint.ComplaintStore` protocol so it can back a
  :class:`~repro.trust.complaint.ComplaintTrustModel` directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ReputationError, TrustModelError
from repro.pgrid.network import PGridNetwork
from repro.reputation.records import InteractionRecord, Rating
from repro.trust import Complaint, ComplaintTrustBackend
from repro.trust.backend import complaint_log_items, complaints_from_snapshot

__all__ = ["LocalReputationStore", "DistributedReputationStore"]


def _complaint_to_payload(complaint: Complaint) -> str:
    return f"complaint|{complaint.complainant_id}|{complaint.accused_id}|{complaint.timestamp}"


def _payload_to_complaint(payload: str) -> Optional[Complaint]:
    parts = payload.split("|")
    if len(parts) != 4 or parts[0] != "complaint":
        return None
    try:
        return Complaint(
            complainant_id=parts[1], accused_id=parts[2], timestamp=float(parts[3])
        )
    except (ValueError, TrustModelError):
        return None


class LocalReputationStore:
    """In-memory reputation store holding ratings, records and complaints."""

    def __init__(self) -> None:
        self._ratings: List[Rating] = []
        self._records: List[InteractionRecord] = []
        self._complaints: List[Complaint] = []

    # -- ratings -------------------------------------------------------
    def add_rating(self, rating: Rating) -> None:
        self._ratings.append(rating)

    def ratings_about(self, subject_id: str) -> Sequence[Rating]:
        return [rating for rating in self._ratings if rating.subject_id == subject_id]

    def ratings_by(self, rater_id: str) -> Sequence[Rating]:
        return [rating for rating in self._ratings if rating.rater_id == rater_id]

    # -- interaction records --------------------------------------------
    def add_record(self, record: InteractionRecord) -> None:
        self._records.append(record)

    def records_involving(self, agent_id: str) -> Sequence[InteractionRecord]:
        return [
            record
            for record in self._records
            if agent_id in (record.supplier_id, record.consumer_id)
        ]

    @property
    def records(self) -> Tuple[InteractionRecord, ...]:
        return tuple(self._records)

    # -- complaints (ComplaintStore protocol) ----------------------------
    def file_complaint(self, complaint: Complaint) -> None:
        self._complaints.append(complaint)

    def complaints_about(self, agent_id: str) -> Sequence[Complaint]:
        return [c for c in self._complaints if c.accused_id == agent_id]

    def complaints_by(self, agent_id: str) -> Sequence[Complaint]:
        return [c for c in self._complaints if c.complainant_id == agent_id]

    def known_agents(self) -> Sequence[str]:
        agents: List[str] = []
        for rating in self._ratings:
            for agent_id in (rating.rater_id, rating.subject_id):
                if agent_id not in agents:
                    agents.append(agent_id)
        for complaint in self._complaints:
            for agent_id in (complaint.complainant_id, complaint.accused_id):
                if agent_id not in agents:
                    agents.append(agent_id)
        for record in self._records:
            for agent_id in (record.supplier_id, record.consumer_id):
                if agent_id not in agents:
                    agents.append(agent_id)
        return agents

    def all_complaints(self) -> Sequence[Complaint]:
        """Every stored complaint (lets caching layers recount in one pass)."""
        return tuple(self._complaints)

    def __len__(self) -> int:
        """Total stored evidence items — the change-tracking version stamp.

        Counts ratings and interaction records too, not just complaints:
        they extend :meth:`known_agents`, which feeds the complaint
        backend's community reference metric, so any of these writes must
        advance the stamp for caches to notice.
        """
        return len(self._complaints) + len(self._ratings) + len(self._records)

    def trust_backend(self, **params) -> ComplaintTrustBackend:
        """A complaint trust backend reading from / writing through this store.

        All trust computation over the store's complaint data goes through
        the returned :class:`~repro.trust.backend.ComplaintTrustBackend`;
        the store itself only persists evidence.
        """
        return ComplaintTrustBackend(store=self, **params)


class DistributedReputationStore:
    """Reputation store backed by the P-Grid substrate.

    Records about agent ``q`` are stored under the application key
    ``about:q`` and records authored by ``q`` under ``by:q``; both lookups
    are therefore ordinary P-Grid queries whose cost is accounted by the
    network's statistics.

    A decentralised store cannot enumerate "all agents", so the store keeps a
    local registry of the agent identifiers it has touched, which stands in
    for the community directory the original system obtains out of band.
    """

    ABOUT_PREFIX = "about:"
    BY_PREFIX = "by:"
    RATING_ABOUT_PREFIX = "rating-about:"

    def __init__(self, network: PGridNetwork):
        self._network = network
        self._known_agents: List[str] = []

    @property
    def network(self) -> PGridNetwork:
        return self._network

    def _remember(self, *agent_ids: str) -> None:
        for agent_id in agent_ids:
            if agent_id and agent_id not in self._known_agents:
                self._known_agents.append(agent_id)

    # -- ratings -------------------------------------------------------
    def add_rating(self, rating: Rating) -> None:
        self._remember(rating.rater_id, rating.subject_id)
        self._network.insert(
            self.RATING_ABOUT_PREFIX + rating.subject_id, rating.to_json()
        )

    def ratings_about(self, subject_id: str) -> Sequence[Rating]:
        result = self._network.query(self.RATING_ABOUT_PREFIX + subject_id)
        ratings: List[Rating] = []
        for payload in result.values:
            try:
                ratings.append(Rating.from_json(payload))
            except ReputationError:
                continue
        return ratings

    # -- complaints (ComplaintStore protocol) ----------------------------
    def file_complaint(self, complaint: Complaint) -> None:
        self._remember(complaint.complainant_id, complaint.accused_id)
        payload = _complaint_to_payload(complaint)
        self._network.insert(self.ABOUT_PREFIX + complaint.accused_id, payload)
        self._network.insert(self.BY_PREFIX + complaint.complainant_id, payload)

    def complaints_about(self, agent_id: str) -> Sequence[Complaint]:
        result = self._network.query(self.ABOUT_PREFIX + agent_id)
        return self._decode_complaints(result.values)

    def complaints_by(self, agent_id: str) -> Sequence[Complaint]:
        result = self._network.query(self.BY_PREFIX + agent_id)
        return self._decode_complaints(result.values)

    def complaint_reports_about(
        self, agent_id: str, max_replicas: Optional[int] = None
    ) -> List[Tuple[int, int]]:
        """Per-replica ``(received, filed)`` counts for witness aggregation."""
        about_results = self._network.query_replicas(
            self.ABOUT_PREFIX + agent_id, max_replicas=max_replicas
        )
        by_results = self._network.query_replicas(
            self.BY_PREFIX + agent_id, max_replicas=max_replicas
        )
        reports: List[Tuple[int, int]] = []
        pairs = max(len(about_results), len(by_results))
        for index in range(pairs):
            received = (
                len(self._decode_complaints(about_results[index].values))
                if index < len(about_results)
                else 0
            )
            filed = (
                len(self._decode_complaints(by_results[index].values))
                if index < len(by_results)
                else 0
            )
            reports.append((received, filed))
        return reports

    def known_agents(self) -> Sequence[str]:
        return list(self._known_agents)

    def all_complaints(self) -> Sequence[Complaint]:
        """Every complaint in the distributed store, each exactly once.

        Enumerates the agent registry and queries the ``about:`` key of each
        agent (every complaint has exactly one accused), so the cost is one
        P-Grid query per known agent — the price of global enumeration on a
        decentralised substrate.  Exposing it lets the complaint trust
        backend's ``snapshot()`` checkpoint distributed complaint state the
        same way it checkpoints a local store.
        """
        complaints: List[Complaint] = []
        for agent_id in self._known_agents:
            complaints.extend(self.complaints_about(agent_id))
        return tuple(complaints)

    # -- checkpointing ---------------------------------------------------
    def snapshot(self) -> Dict[str, np.ndarray]:
        """Serialise the distributed complaint state as numpy arrays.

        Captures the complaint log (gathered through ordinary P-Grid
        queries) plus the local agent registry, in the same
        dict-of-numpy-arrays format the trust backends checkpoint in, so
        one checkpointing path covers local and P-Grid-backed evidence.
        The P-Grid topology itself is *not* part of the snapshot — a
        restore re-inserts the evidence into whatever network the store is
        bound to.
        """
        return {
            "store": np.array("distributed-reputation"),
            "known_agents": np.array(list(self._known_agents), dtype=object),
            **dict(complaint_log_items(self.all_complaints())),
        }

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        """Re-insert a :meth:`snapshot` into the store's current network.

        The agent registry is replaced and every checkpointed complaint is
        filed again through the ordinary insert path (keyed replication and
        routing included), so a store restored onto a *different* P-Grid
        topology answers complaint queries identically.  The store must be
        *fresh*: P-Grid inserts are append-only, so restoring over existing
        evidence would duplicate complaints rather than replace them —
        that case is refused instead of silently corrupting counts.
        """
        marker = state.get("store")
        if marker is None or str(np.asarray(marker).item()) != "distributed-reputation":
            raise ReputationError(
                "snapshot was not taken by a DistributedReputationStore"
            )
        if self._known_agents:
            raise ReputationError(
                "restore requires a fresh distributed store; this one already "
                "holds evidence (inserts are append-only and would duplicate)"
            )
        self._known_agents = [str(agent) for agent in state["known_agents"]]
        for complaint in complaints_from_snapshot(state):
            payload = _complaint_to_payload(complaint)
            self._network.insert(self.ABOUT_PREFIX + complaint.accused_id, payload)
            self._network.insert(self.BY_PREFIX + complaint.complainant_id, payload)

    def trust_backend(self, **params) -> ComplaintTrustBackend:
        """A complaint trust backend over the distributed complaint data.

        The distributed store cannot be change-tracked cheaply (writes land
        on remote replicas), so the returned backend re-counts complaints
        through ordinary P-Grid queries on every scoring call — the same
        cost profile as the scalar model it replaces, with the batched
        scoring interface on top.
        """
        return ComplaintTrustBackend(store=self, **params)

    # ------------------------------------------------------------------
    @staticmethod
    def _decode_complaints(payloads: Iterable[str]) -> List[Complaint]:
        complaints: List[Complaint] = []
        for payload in payloads:
            complaint = _payload_to_complaint(payload)
            if complaint is not None:
                complaints.append(complaint)
        return complaints
