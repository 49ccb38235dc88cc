"""The P-Grid network façade: insert and query with cost accounting.

:class:`PGridNetwork` ties the peers, construction, routing and replication
together and exposes the two operations the reputation layer needs —
``insert(application_key, value)`` and ``query(application_key)`` — while
counting hops and messages so the scalability experiment (Figure 4) can
report routing cost against network size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import StorageError
from repro.pgrid.construction import bootstrap_by_exchanges, build_balanced
from repro.pgrid.keyspace import DEFAULT_KEY_BITS, hash_to_bits
from repro.pgrid.node import PGridPeer
from repro.pgrid.replication import replica_groups, replicas_for_key, replication_factor
from repro.pgrid.routing import RouteResult, route

__all__ = ["QueryResult", "InsertResult", "NetworkStats", "PGridNetwork"]


@dataclass(frozen=True)
class QueryResult:
    """Result of querying the network for an application key."""

    key: str
    values: Tuple[str, ...]
    success: bool
    hops: int
    messages: int
    responder_id: Optional[str]


@dataclass(frozen=True)
class InsertResult:
    """Result of inserting a value: where it ended up and at what cost."""

    key: str
    stored_on: Tuple[str, ...]
    success: bool
    hops: int
    messages: int


@dataclass
class NetworkStats:
    """Cumulative operation counters of a network instance."""

    inserts: int = 0
    queries: int = 0
    failed_operations: int = 0
    total_hops: int = 0
    total_messages: int = 0

    def record(self, hops: int, messages: int, success: bool, query: bool) -> None:
        if query:
            self.queries += 1
        else:
            self.inserts += 1
        if not success:
            self.failed_operations += 1
        self.total_hops += hops
        self.total_messages += messages

    @property
    def mean_hops(self) -> float:
        operations = self.inserts + self.queries
        if operations == 0:
            return 0.0
        return self.total_hops / operations


class PGridNetwork:
    """A set of P-Grid peers with routing-based insert and query operations."""

    def __init__(
        self,
        peer_ids: Iterable[str],
        seed: Optional[int] = None,
    ):
        ids = list(peer_ids)
        if len(set(ids)) != len(ids):
            raise StorageError("peer ids must be unique")
        self._peers: Dict[str, PGridPeer] = {
            peer_id: PGridPeer(peer_id=peer_id) for peer_id in ids
        }
        self._rng = random.Random(seed)
        self.stats = NetworkStats()

    # ------------------------------------------------------------------
    # Peers
    # ------------------------------------------------------------------
    @property
    def peers(self) -> Dict[str, PGridPeer]:
        return self._peers

    def peer(self, peer_id: str) -> PGridPeer:
        try:
            return self._peers[peer_id]
        except KeyError:
            raise StorageError(f"unknown peer {peer_id!r}") from None

    def __len__(self) -> int:
        return len(self._peers)

    def add_peer(self, peer_id: str) -> PGridPeer:
        """Add a fresh peer (empty path) to the network."""
        if peer_id in self._peers:
            raise StorageError(f"peer {peer_id!r} already exists")
        peer = PGridPeer(peer_id=peer_id)
        self._peers[peer_id] = peer
        return peer

    def remove_peer(self, peer_id: str) -> None:
        """Remove a peer (churn); its locally stored data is lost."""
        self._peers.pop(peer_id, None)

    def set_tamper_hook(self, peer_id: str, hook) -> None:
        """Install a tampering hook on a peer (models dishonest storage)."""
        self.peer(peer_id).tamper_hook = hook

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(
        self,
        strategy: str = "balanced",
        rounds: Optional[int] = None,
        depth: Optional[int] = None,
        max_depth: Optional[int] = None,
    ) -> None:
        """Construct the trie with the chosen strategy.

        ``strategy`` is either ``"balanced"`` (deterministic, fully populated
        routing tables) or ``"exchange"`` (decentralised random pairwise
        bootstrap).
        """
        if strategy == "balanced":
            build_balanced(self._peers, depth=depth, rng=self._rng)
        elif strategy == "exchange":
            bootstrap_by_exchanges(
                self._peers, rounds=rounds, rng=self._rng, max_depth=max_depth
            )
        else:
            raise StorageError(f"unknown construction strategy {strategy!r}")

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def binary_key(self, application_key: str) -> str:
        return hash_to_bits(application_key, DEFAULT_KEY_BITS)

    def _random_start(self) -> str:
        return self._rng.choice(list(self._peers.keys()))

    def insert(
        self, application_key: str, value: str, from_peer: Optional[str] = None
    ) -> InsertResult:
        """Store a value under an application key on its responsible peer.

        The value is also copied to every other replica of the key.
        """
        if not self._peers:
            raise StorageError("cannot insert into an empty network")
        key = self.binary_key(application_key)
        start = from_peer if from_peer is not None else self._random_start()
        result = route(self._peers, start, key, rng=self._rng)
        stored_on: List[str] = []
        messages = result.messages
        if result.success and result.responsible_peer_id is not None:
            responsible = self.peer(result.responsible_peer_id)
            responsible.store_local(key, value)
            stored_on.append(responsible.peer_id)
            for replica_id in replicas_for_key(self._peers, key):
                if replica_id == responsible.peer_id:
                    continue
                self.peer(replica_id).store_local(key, value)
                stored_on.append(replica_id)
                messages += 1
        self.stats.record(result.hops, messages, result.success, query=False)
        return InsertResult(
            key=key,
            stored_on=tuple(stored_on),
            success=result.success,
            hops=result.hops,
            messages=messages,
        )

    def query(
        self, application_key: str, from_peer: Optional[str] = None
    ) -> QueryResult:
        """Fetch the values stored under an application key (single replica)."""
        if not self._peers:
            raise StorageError("cannot query an empty network")
        key = self.binary_key(application_key)
        start = from_peer if from_peer is not None else self._random_start()
        result = route(self._peers, start, key, rng=self._rng)
        values: Tuple[str, ...] = ()
        responder: Optional[str] = None
        if result.success and result.responsible_peer_id is not None:
            responder = result.responsible_peer_id
            values = tuple(self.peer(responder).retrieve_local(key))
        self.stats.record(result.hops, result.messages, result.success, query=True)
        return QueryResult(
            key=key,
            values=values,
            success=result.success,
            hops=result.hops,
            messages=result.messages,
            responder_id=responder,
        )

    def query_replicas(
        self, application_key: str, max_replicas: Optional[int] = None
    ) -> List[QueryResult]:
        """Query every replica responsible for the key separately.

        Used by the complaint-based trust model to cross-check potentially
        forged reports; each per-replica answer is returned unmerged.
        """
        key = self.binary_key(application_key)
        replica_ids = list(replicas_for_key(self._peers, key))
        if max_replicas is not None:
            replica_ids = replica_ids[:max_replicas]
        results: List[QueryResult] = []
        for replica_id in replica_ids:
            values = tuple(self.peer(replica_id).retrieve_local(key))
            # Reaching a specific replica costs a normal routed lookup; use
            # the mean routing cost estimate of one hop per path bit.
            hops = len(self.peer(replica_id).path)
            self.stats.record(hops, hops, True, query=True)
            results.append(
                QueryResult(
                    key=key,
                    values=values,
                    success=True,
                    hops=hops,
                    messages=hops,
                    responder_id=replica_id,
                )
            )
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def replica_groups(self) -> Dict[str, Tuple[str, ...]]:
        return replica_groups(self._peers)

    def replication_factor(self) -> float:
        return replication_factor(self._peers)

    def total_stored_values(self) -> int:
        return sum(peer.data_size() for peer in self._peers.values())
