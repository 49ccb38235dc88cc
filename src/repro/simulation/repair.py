"""Anti-entropy evidence repair: journals, digests, and repair policies.

The async evidence plane (:mod:`repro.simulation.evidence`) loses messages
permanently: a sampled drop is hard information loss, not slower
convergence.  This module turns loss back into a latency problem.  Every
piece of evidence entering the async plane is wrapped in an
:class:`EvidenceEntry` stamped with a per-origin sequence number, so the
whole community shares one global naming scheme ``(origin_peer, seq)`` for
evidence units.  On top of that identity three mechanisms compose:

* an append-only :class:`EvidenceJournal` per peer recording every entry
  the peer has originated or learned of.  A plane that journals keeps one
  :class:`EntryCatalog` giving each journaled entry a dense id, and a
  journal is one bool row over those ids; its digest is a frozen copy of
  the row, so comparing two peers' knowledge, picking the entries to push
  or pull, and dropping duplicates are whole-row numpy operations.  Each
  origin names its entries from two sequence spaces: journaled evidence
  counts up from 1 and transient witness traffic counts down from -1, so
  the journaled space is dense and a converged journal holds seqs
  ``1..n`` of every origin;
* a pluggable :class:`RepairPolicy` — ``off`` (today's fire-and-forget),
  ``retransmit`` (recipients ack every delivered entry, origins re-send
  unacked entries with capped exponential backoff), and ``gossip``
  (periodic anti-entropy rounds: each peer exchanges digests with
  ``fanout`` random partners and push/pulls the missing entries, as
  catalog ids, in batched messages) — all repair traffic flows through the
  same :class:`~repro.simulation.network.SimulatedNetwork`, so it pays
  latency, loss and link faults like first-class evidence does;
* idempotent delivery — the plane dedups by ``(origin, seq)`` before
  applying anything to a backend or the complaint store, so repaired
  duplicates never double-count evidence
  (``NetworkCounters.duplicates_suppressed`` counts the copies thrown
  away).

With the policy ``off`` nothing here costs anything: entries still get
sequence numbers (which is what makes the effective-delivery accounting and
the dedup guard exact), but no journal is kept and no repair message is
ever sent — for a given submission stream the plane's wire traffic is
exactly the fire-and-forget traffic it always was.  (The community driver's
async flush granularity did change with this subsystem — per-counterparty
receipt batches instead of one self-addressed batch per peer, so entries
have a real origin to repair from — with identical evidence *content*; the
evidence-plane pinning tests hold.)
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.trust.storage import PeerIndex, grow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (evidence imports us)
    from repro.simulation.evidence import EvidencePlane
    from repro.simulation.network import Message

__all__ = [
    "REPAIR_POLICIES",
    "EvidenceEntry",
    "EntryCatalog",
    "EvidenceJournal",
    "RepairPolicy",
    "OffPolicy",
    "RetransmitPolicy",
    "GossipPolicy",
    "create_repair_policy",
]

REPAIR_POLICIES = ("off", "retransmit", "gossip")

#: Each resend multiplies an entry's retry interval by this factor...
RETRANSMIT_BACKOFF = 2.0
#: ...up to this many initial timeouts.
RETRANSMIT_MAX_TIMEOUTS = 8.0


@dataclass(frozen=True)
class EvidenceEntry:
    """One immutable unit of evidence on the wire, named ``(origin, seq)``.

    ``origin_id`` is the peer that emitted the entry (the counterparty of an
    interaction for observation batches, the filer for complaints, the
    requester/witness for witness traffic).  ``seq`` comes from one of two
    per-origin counters: journaled evidence counts up ``1, 2, 3, ...`` and
    transient request/reply traffic (witness polling) counts down
    ``-1, -2, ...``, so the pair is a community-wide unique name and the
    journaled sequence space of every origin stays dense — a hole in it is
    always a real loss.  ``transient`` entries are acked and deduped but
    never journaled or gossiped: a stale witness reply is not evidence
    worth replicating.
    """

    origin_id: str
    seq: int
    recipient_id: str
    kind: str
    payload: Any
    emitted_at: float
    transient: bool = False

    @property
    def key(self) -> Tuple[str, int]:
        return (self.origin_id, self.seq)


class EntryCatalog:
    """Every journaled entry of one plane, under a dense id ``0, 1, 2, ...``.

    Ids are handed out in first-seen order (the plane interns each entry as
    it emits it).  Beside the entry objects the catalog keeps an origin, a
    recipient and a seq column (peer names interned in one
    :class:`~repro.trust.storage.PeerIndex`): enough to order any set of ids
    by ``(origin, seq)`` and to pick out the entries addressed to a peer
    without touching the others.
    """

    def __init__(self) -> None:
        self._entries: List[EvidenceEntry] = []
        self._ids: Dict[Tuple[str, int], int] = {}
        self._peers = PeerIndex()
        self._origin = np.zeros(0, dtype=np.int64)
        self._recipient = np.zeros(0, dtype=np.int64)
        self._seq = np.zeros(0, dtype=np.int64)
        #: Every id in ``(origin, seq)`` order; rebuilt after an intern.
        self._order: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._entries)

    def intern(self, entry: EvidenceEntry) -> int:
        """The id of ``entry``'s key, assigning the next one if it is new."""
        key = entry.key
        gid = self._ids.get(key)
        if gid is None:
            if entry.transient:
                raise SimulationError(f"transient entry {key} cannot be journaled")
            gid = self._ids[key] = len(self._entries)
            self._entries.append(entry)
            self._order = None
            self._origin = grow(self._origin, gid + 1)
            self._recipient = grow(self._recipient, gid + 1)
            self._seq = grow(self._seq, gid + 1)
            self._origin[gid] = self._peers.intern(entry.origin_id)
            self._recipient[gid] = self._peers.intern(entry.recipient_id)
            self._seq[gid] = entry.seq
        return gid

    def id_of(self, key: Tuple[str, int]) -> Optional[int]:
        return self._ids.get(key)

    def entry(self, gid: int) -> EvidenceEntry:
        return self._entries[gid]

    def ordered(self, mask: np.ndarray) -> np.ndarray:
        """Ids set in the bool ``mask`` over ids, in ``(origin, seq)`` order."""
        order = self._order
        if order is None:
            names = self._peers.names()
            rank = np.empty(len(names), dtype=np.int64)
            rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(
                len(names)
            )
            count = len(self._entries)
            order = self._order = np.lexsort(
                (self._seq[:count], rank[self._origin[:count]])
            )
        if len(mask) < len(order):
            mask = np.concatenate((mask, np.zeros(len(order) - len(mask), bool)))
        return order[mask[order]]

    def addressed(self, ids: np.ndarray, *recipients: str) -> np.ndarray:
        """The ``ids`` whose recipient is one of ``recipients``, in order."""
        column = self._recipient[ids]
        mask = np.zeros(len(ids), dtype=bool)
        for row in map(self._peers.get, recipients):
            if row is not None:
                mask |= column == row
        return ids[mask]


class EvidenceJournal:
    """Append-only record of the catalog entries one peer knows about.

    One bool row over the plane's :class:`EntryCatalog` ids plus a count;
    the entries themselves live in the catalog (so the peer can answer pull
    requests and relay third-party evidence onward).  ``digest()`` is a
    read-only copy of the row up to its highest held id, cached until the
    next add, so equal journals have equal digests and a digest already
    handed out never changes.  ``entries_missing_from`` (``mine & ~theirs``)
    and ``is_missing_any`` (``any(theirs & ~mine)``) are the two sides of an
    anti-entropy comparison, each a few whole-row numpy operations.
    """

    __slots__ = ("_catalog", "_row", "_end", "_count", "_digest")

    def __init__(self, catalog: EntryCatalog) -> None:
        self._catalog = catalog
        self._row = np.zeros(0, dtype=bool)
        #: One past the highest held id: the digest's length.
        self._end = 0
        self._count = 0
        self._digest: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: Tuple[str, int]) -> bool:
        gid = self._catalog.id_of(key)
        return gid is not None and gid < self._end and bool(self._row[gid])

    def get(self, key: Tuple[str, int]) -> EvidenceEntry:
        if key not in self:
            raise KeyError(key)
        return self._catalog.entry(self._catalog.id_of(key))

    def keys(self) -> Tuple[Tuple[str, int], ...]:
        """Every ``(origin, seq)`` key held, in ``(origin, seq)`` order."""
        ids = self._catalog.ordered(self._row[: self._end])
        return tuple(self._catalog.entry(gid).key for gid in ids.tolist())

    def add(self, entry: EvidenceEntry) -> bool:
        """Store an entry; returns ``False`` when it was already journaled."""
        ids = np.array([self._catalog.intern(entry)], dtype=np.int64)
        return len(self.add_ids(ids)) == 1

    def add_ids(self, ids: np.ndarray) -> np.ndarray:
        """Record the distinct catalog ``ids``; returns the new ones, in order."""
        end = int(ids.max()) + 1 if len(ids) else 0
        if end > len(self._row):
            self._row = grow(self._row, end)
        fresh = ids[~self._row[ids]]
        if len(fresh):
            self._row[fresh] = True
            self._count += len(fresh)
            self._end = max(self._end, end)
            self._digest = None
        return fresh

    def digest(self) -> np.ndarray:
        """Read-only bool row of the held ids (cached until the next add)."""
        digest = self._digest
        if digest is None:
            digest = self._digest = self._row[: self._end].copy()
            digest.flags.writeable = False
        return digest

    def entries_missing_from(self, their_digest: np.ndarray) -> np.ndarray:
        """Ids this journal holds that ``their_digest`` lacks.

        Returned in deterministic ``(origin, seq)`` order — the push half of
        an anti-entropy exchange.
        """
        missing = self._row[: self._end].copy()
        shared = min(self._end, len(their_digest))
        missing[:shared] &= ~their_digest[:shared]
        return self._catalog.ordered(missing)

    def is_missing_any(self, their_digest: np.ndarray) -> bool:
        """Whether ``their_digest`` claims entries this journal lacks."""
        shared = min(self._end, len(their_digest))
        return bool(
            their_digest[shared:].any()
            or (their_digest[:shared] > self._row[:shared]).any()
        )


# ----------------------------------------------------------------------
# Repair policies
# ----------------------------------------------------------------------
class RepairPolicy(abc.ABC):
    """How the evidence plane recovers from lost messages.

    A policy is bound to exactly one :class:`EvidencePlane` and receives the
    plane's lifecycle callbacks; everything it sends goes through
    ``plane.repair_send`` so repair traffic is first-class network traffic
    (it pays latency, loss and faults, and is tallied in
    ``NetworkCounters.repair_messages``).
    """

    #: Registry/CLI name of the policy.
    name = "abstract"
    #: Whether the plane should maintain per-peer evidence journals.
    journaling = False
    #: Whether recipients acknowledge delivered entries.
    acking = False

    def bind(self, plane: "EvidencePlane") -> None:
        self._plane = plane

    # Lifecycle hooks -------------------------------------------------
    def on_emit(self, entry: EvidenceEntry, now: float) -> None:
        """An entry was just sent directly to its recipient."""

    def on_entry_delivered(
        self, entry: EvidenceEntry, holder_id: str, now: float
    ) -> None:
        """A direct copy of ``entry`` reached ``holder_id`` (maybe again)."""

    def on_ack(self, keys: Tuple[Tuple[str, int], ...]) -> None:
        """An acknowledgement for ``keys`` reached the origin."""

    def on_repair_message(self, message: "Message", now: float) -> None:
        """A policy-specific repair message (digest / entry batch) arrived."""

    def on_round(self, now: float) -> None:
        """The plane's clock advanced to ``now`` (once per tick)."""

    def on_peer_departed(self, peer_id: str) -> None:
        """``peer_id`` churned out; drop any state that targets it."""

    def has_pending(self) -> bool:
        """Whether the policy still has repair work to do (drain predicate)."""
        return False


class OffPolicy(RepairPolicy):
    """No repair: lost evidence stays lost (the pre-repair behaviour)."""

    name = "off"


@dataclass
class _PendingRetransmit:
    entry: EvidenceEntry
    deadline: float
    interval: float


class RetransmitPolicy(RepairPolicy):
    """Ack-and-retransmit with capped exponential backoff.

    Every delivered entry is acknowledged back to its origin; the origin
    keeps unacknowledged entries pending and re-sends them whenever their
    deadline passes, doubling the retry interval (``RETRANSMIT_BACKOFF``)
    up to ``8 x timeout`` (``RETRANSMIT_MAX_TIMEOUTS``).  Acks ride the
    lossy network too, so a lost ack produces a duplicate delivery — which
    the plane's ``(origin, seq)`` dedup suppresses and re-acks.
    """

    name = "retransmit"
    acking = True

    def __init__(self, timeout: float = 2.0) -> None:
        if not 0.0 < timeout < math.inf:
            raise SimulationError(
                f"retransmit timeout must be finite and > 0, got {timeout}"
            )
        self._timeout = timeout
        self._max_interval = RETRANSMIT_MAX_TIMEOUTS * timeout
        self._pending: Dict[Tuple[str, int], _PendingRetransmit] = {}

    def on_emit(self, entry: EvidenceEntry, now: float) -> None:
        self._pending[entry.key] = _PendingRetransmit(
            entry=entry,
            deadline=now + self._timeout,
            interval=self._timeout,
        )

    def on_entry_delivered(
        self, entry: EvidenceEntry, holder_id: str, now: float
    ) -> None:
        self._plane.repair_send(
            holder_id, entry.origin_id, (entry.key,), kind="repair-ack"
        )

    def on_ack(self, keys: Tuple[Tuple[str, int], ...]) -> None:
        for key in keys:
            self._pending.pop(key, None)

    def on_round(self, now: float) -> None:
        # Grouped by origin, each origin's entries in emission order: a
        # stable sort on the origin alone (transient seqs count down, so a
        # sort on the whole key would not be emission order).
        pending = sorted(self._pending.items(), key=lambda item: item[0][0])
        for _, state in pending:
            if state.deadline > now:
                continue
            self._plane.resend_entry(state.entry)
            state.interval = min(
                state.interval * RETRANSMIT_BACKOFF, self._max_interval
            )
            state.deadline = now + state.interval

    def on_peer_departed(self, peer_id: str) -> None:
        # Entries *to* the departed peer can never be delivered and entries
        # *from* it have no one left to drive retries; both are dead state.
        self._pending = {
            key: state
            for key, state in self._pending.items()
            if peer_id not in (state.entry.recipient_id, state.entry.origin_id)
        }

    def has_pending(self) -> bool:
        # Pending state for an already-settled entry is just an ack that has
        # not made it home yet — noise, not unrecovered evidence — so the
        # drain predicate only counts pendings whose entry never reached its
        # destination.
        return any(
            not self._plane.is_settled(state.entry)
            for state in self._pending.values()
        )


class GossipPolicy(RepairPolicy):
    """Periodic anti-entropy: digest exchange plus push/pull of the deltas.

    Every ``period`` ticks each registered peer picks ``fanout`` random
    partners and sends them its journal digest.  A partner that holds
    entries the digest lacks — or is itself missing entries the digest
    claims — answers with one batched ``repair-entries`` message carrying
    its deltas as catalog ids (and its own digest when it wants a push
    back); the initiator then pushes the reverse delta.  Entries spread
    epidemically through relays, so evidence reaches its recipient even
    when every direct path keeps failing — and a healed partition backfills
    through the first cross-clique exchange.
    """

    name = "gossip"
    journaling = True

    def __init__(self, period: float = 1.0, fanout: int = 2) -> None:
        if not 0.0 < period < math.inf:
            raise SimulationError(
                f"gossip period must be finite and > 0, got {period}"
            )
        if fanout < 1:
            raise SimulationError(f"gossip fanout must be >= 1, got {fanout}")
        self._period = period
        self._fanout = fanout
        self._last_round = 0.0

    def on_round(self, now: float) -> None:
        if now - self._last_round < self._period:
            return
        self._last_round = now
        plane = self._plane
        peer_ids = plane.registered_ids()
        if len(peer_ids) < 2:
            return
        rng = plane.repair_rng
        others = len(peer_ids) - 1
        fanout = min(self._fanout, others)
        for position, peer_id in enumerate(peer_ids):
            # Sampling indices into "everyone but me" draws exactly what
            # sampling that list would, without building it per peer.
            picks = rng.sample(range(others), fanout)
            digest = plane.journal_for(peer_id).digest()
            for pick in picks:
                partner_id = peer_ids[pick + 1 if pick >= position else pick]
                plane.repair_send(
                    peer_id, partner_id, (peer_id, digest), kind="repair-digest"
                )

    def on_repair_message(self, message: "Message", now: float) -> None:
        plane = self._plane
        holder_id = message.recipient_id
        if not plane.is_registered(holder_id):
            return  # partner churned out while the message was in flight
        journal = plane.journal_for(holder_id)
        if message.kind == "repair-digest":
            sender_id, their_digest = message.payload
            push = journal.entries_missing_from(their_digest)
            wants_pull = journal.is_missing_any(their_digest)
            if len(push) or wants_pull:
                plane.repair_send(
                    holder_id,
                    sender_id,
                    (holder_id, push, journal.digest() if wants_pull else None),
                    kind="repair-entries",
                )
        elif message.kind == "repair-entries":
            sender_id, ids, their_digest = message.payload
            plane.ingest_entries(holder_id, ids, now)
            if their_digest is not None:
                push_back = journal.entries_missing_from(their_digest)
                if len(push_back):
                    plane.repair_send(
                        holder_id,
                        sender_id,
                        (holder_id, push_back, None),
                        kind="repair-entries",
                    )

    def has_pending(self) -> bool:
        # Gossip keeps working exactly while some emitted entry has neither
        # been applied nor written off (its origin's journal still holds it,
        # so anti-entropy will eventually carry it home).
        counters = self._plane.counters
        return counters is not None and counters.missing_entries > 0


def create_repair_policy(
    name: str,
    gossip_period: float = 1.0,
    gossip_fanout: int = 2,
    retransmit_timeout: float = 2.0,
) -> RepairPolicy:
    """Build a repair policy from its registry name and tuning knobs."""
    if name == "off":
        return OffPolicy()
    if name == "retransmit":
        return RetransmitPolicy(timeout=retransmit_timeout)
    if name == "gossip":
        return GossipPolicy(period=gossip_period, fanout=gossip_fanout)
    raise SimulationError(
        f"evidence repair policy must be one of {REPAIR_POLICIES}, got {name!r}"
    )
