"""The P-Grid-backed complaint store.

:class:`DistributedReputationStore` stores every complaint in a
:class:`~repro.pgrid.network.PGridNetwork`, keyed by the accused (for data
*about* an agent) and by the complainant (for data *filed by* an agent),
which is how the complaint-based trust model of Aberer & Despotovic
distributes its evidence.  It implements the
:class:`~repro.trust.complaint.ComplaintStore` protocol, so it backs a
:class:`~repro.trust.complaint.ComplaintTrustModel` directly, and it
answers per-replica complaint reports for witness aggregation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ReputationError, TrustModelError
from repro.pgrid.network import PGridNetwork
from repro.trust import Complaint
from repro.trust.backend import complaint_log_items, complaints_from_snapshot

__all__ = ["DistributedReputationStore"]


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


class DistributedReputationStore:
    """Reputation store backed by the P-Grid substrate.

    Complaints about agent ``q`` are stored under the application key
    ``about:q`` and complaints filed by ``q`` under ``by:q``; both lookups
    are therefore ordinary P-Grid queries whose cost is accounted by the
    network's statistics.

    A decentralised store cannot enumerate "all agents", so the store keeps a
    local registry of the agent identifiers it has touched, which stands in
    for the community directory the original system obtains out of band.
    """

    ABOUT_PREFIX = "about:"
    BY_PREFIX = "by:"

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
        decentralised substrate.  :meth:`snapshot` checkpoints the store
        from it.
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

    # ------------------------------------------------------------------
    @staticmethod
    def _decode_complaints(payloads: Iterable[str]) -> List[Complaint]:
        complaints: List[Complaint] = []
        for payload in payloads:
            complaint = _payload_to_complaint(payload)
            if complaint is not None:
                complaints.append(complaint)
        return complaints
