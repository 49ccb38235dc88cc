"""Anti-entropy evidence repair: journals, digests, and repair policies.

The async evidence plane (:mod:`repro.simulation.evidence`) loses messages
permanently: a sampled drop is hard information loss, not slower
convergence.  This module turns loss back into a latency problem.  Every
piece of evidence entering the async plane is wrapped in an
:class:`EvidenceEntry` stamped with a per-origin sequence number, so the
whole community shares one global naming scheme ``(origin_peer, seq)`` for
evidence units.  On top of that identity three mechanisms compose:

* an append-only :class:`EvidenceJournal` per peer storing every entry the
  peer has originated or learned of, summarised by a compact per-origin
  digest (highest contiguous sequence number + explicit holes set), so two
  peers can compare what they know in one small message.  Each origin
  names its entries from two sequence spaces: journaled evidence counts up
  from 1 and transient witness traffic counts down from -1, so the
  journaled space is dense and a converged origin's digest is just
  ``(n, frozenset())``.  Digests are cached and rebuilt only for the
  origins that changed, and the digest comparisons skip every origin whose
  digest matches the partner's, so anti-entropy costs what changed rather
  than the whole history;
* a pluggable :class:`RepairPolicy` — ``off`` (today's fire-and-forget),
  ``retransmit`` (recipients ack every delivered entry, origins re-send
  unacked entries with capped exponential backoff), and ``gossip``
  (periodic anti-entropy rounds: each peer exchanges digests with
  ``fanout`` random partners and push/pulls the missing entries as batched
  messages) — all repair traffic flows through the same
  :class:`~repro.simulation.network.SimulatedNetwork`, so it pays latency,
  loss and link faults like first-class evidence does;
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
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (evidence imports us)
    from repro.simulation.evidence import EvidencePlane
    from repro.simulation.network import Message

__all__ = [
    "REPAIR_POLICIES",
    "EvidenceEntry",
    "SequenceTracker",
    "EvidenceJournal",
    "RepairPolicy",
    "OffPolicy",
    "RetransmitPolicy",
    "GossipPolicy",
    "create_repair_policy",
]

REPAIR_POLICIES = ("off", "retransmit", "gossip")

#: A per-origin digest: (highest contiguous seq, explicit extras beyond it).
Digest = Tuple[int, frozenset]

_EMPTY_DIGEST: Digest = (0, frozenset())


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


class SequenceTracker:
    """Which sequence numbers of one origin a peer has seen.

    Kept as the highest contiguous prefix (``1..contiguous`` all seen) plus
    an explicit set of extras beyond it; the holes between them are exactly
    what a repair partner needs to fill.  ``contiguous + 1`` is never an
    extra.  This is the compact form the digest messages carry; the digest
    tuple is cached until the next :meth:`add`, so ``contiguous`` and
    ``extras`` are read-only outside this class.
    """

    __slots__ = ("contiguous", "extras", "_digest")

    def __init__(self) -> None:
        self.contiguous = 0
        self.extras: set = set()
        self._digest: Optional[Digest] = None

    def add(self, seq: int) -> bool:
        """Record ``seq``; returns ``False`` when it was already known."""
        if seq <= self.contiguous or seq in self.extras:
            return False
        if seq == self.contiguous + 1:
            self.contiguous = seq
            while self.contiguous + 1 in self.extras:
                self.contiguous += 1
                self.extras.remove(self.contiguous)
        else:
            self.extras.add(seq)
        self._digest = None
        return True

    def __contains__(self, seq: int) -> bool:
        return seq <= self.contiguous or seq in self.extras

    def __len__(self) -> int:
        return self.contiguous + len(self.extras)

    def digest(self) -> Digest:
        digest = self._digest
        if digest is None:
            digest = self._digest = (self.contiguous, frozenset(self.extras))
        return digest


class EvidenceJournal:
    """Append-only store of the evidence entries one peer knows about.

    Holds the entries themselves (so the peer can answer pull requests and
    relay third-party evidence onward) plus one :class:`SequenceTracker` per
    origin.  ``digest()`` summarises the whole journal for an anti-entropy
    exchange; ``entries_missing_from`` / ``is_missing_any`` are the two
    sides of the digest comparison.  Both skip every origin whose digest
    equals the partner's and scan only above the partner's contiguous
    prefix, so a converged exchange costs one pass over the digest.
    """

    def __init__(self) -> None:
        #: origin -> seq -> entry, each origin's entries in insertion order.
        self._held: Dict[str, Dict[int, EvidenceEntry]] = {}
        self._trackers: Dict[str, SequenceTracker] = {}
        #: The last built digest; never mutated once handed out.
        self._digest: Dict[str, Digest] = {}
        #: Origins added to since ``_digest`` was built (insertion-ordered).
        self._touched: Dict[str, None] = {}

    def __len__(self) -> int:
        return sum(map(len, self._held.values()))

    def __contains__(self, key: Tuple[str, int]) -> bool:
        held = self._held.get(key[0])
        return held is not None and key[1] in held

    def get(self, key: Tuple[str, int]) -> EvidenceEntry:
        return self._held[key[0]][key[1]]

    def keys(self) -> Tuple[Tuple[str, int], ...]:
        """Every ``(origin, seq)`` key held, per origin in insertion order."""
        return tuple(
            (origin, seq) for origin, held in self._held.items() for seq in held
        )

    def add(self, entry: EvidenceEntry) -> bool:
        """Store an entry; returns ``False`` when it was already journaled."""
        return bool(self.add_many((entry,)))

    def add_many(self, entries: Sequence[EvidenceEntry]) -> List[EvidenceEntry]:
        """Store ``entries``; returns the ones that were new, in order."""
        fresh: List[EvidenceEntry] = []
        for entry in entries:
            if entry.transient:
                raise SimulationError(
                    f"transient entry {entry.key} cannot be journaled"
                )
            origin, seq = entry.origin_id, entry.seq
            held = self._held.get(origin)
            if held is None:
                held = self._held[origin] = {}
                self._trackers[origin] = SequenceTracker()
            elif seq in held:
                continue
            held[seq] = entry
            self._trackers[origin].add(seq)
            self._touched[origin] = None
            fresh.append(entry)
        return fresh

    def digest(self) -> Dict[str, Digest]:
        """Compact per-origin summary of everything this journal holds.

        Rebuilds only the origins touched since the last call, into a new
        dict: a digest already handed out (say, riding a message) never
        changes afterwards.
        """
        if self._touched:
            digest = dict(self._digest)
            for origin in self._touched:
                digest[origin] = self._trackers[origin].digest()
            self._touched.clear()
            self._digest = digest
        return self._digest

    def entries_missing_from(
        self, their_digest: Mapping[str, Digest]
    ) -> List[EvidenceEntry]:
        """Entries this journal holds that ``their_digest`` does not cover.

        Returned in deterministic ``(origin, seq)`` order — the push half of
        an anti-entropy exchange.  Origins whose digests match are skipped
        outright; the rest are scanned only above the partner's contiguous
        prefix.
        """
        differing = self.digest().items() - their_digest.items()
        missing: List[EvidenceEntry] = []
        for origin in sorted(origin for origin, _ in differing):
            tracker = self._trackers[origin]
            held = self._held[origin]
            floor, their_extras = their_digest.get(origin, _EMPTY_DIGEST)
            seqs: Iterable[int] = range(floor + 1, tracker.contiguous + 1)
            if their_extras:
                seqs = [seq for seq in seqs if seq not in their_extras]
            missing.extend(map(held.__getitem__, seqs))
            if tracker.extras:
                missing.extend(
                    held[seq]
                    for seq in sorted(tracker.extras)
                    if seq > floor and seq not in their_extras
                )
        return missing

    def is_missing_any(self, their_digest: Mapping[str, Digest]) -> bool:
        """Whether ``their_digest`` claims entries this journal lacks."""
        for origin, (contiguous, extras) in (
            their_digest.items() - self.digest().items()
        ):
            mine = self._trackers.get(origin)
            if mine is None:
                if contiguous > 0 or extras:
                    return True
            elif contiguous > mine.contiguous or any(
                seq not in mine for seq in extras
            ):
                # Their prefix passing ours means they hold ours + 1,
                # which is never one of our extras.
                return True
        return False


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
    deadline passes, doubling the retry interval (``backoff``) up to
    ``max_interval`` (default ``8 x timeout``).  Acks ride the lossy network
    too, so a lost ack produces a duplicate delivery — which the plane's
    ``(origin, seq)`` dedup suppresses and re-acks.
    """

    name = "retransmit"
    acking = True

    def __init__(
        self,
        timeout: float = 2.0,
        backoff: float = 2.0,
        max_interval: float = 0.0,
    ) -> None:
        if timeout <= 0:
            raise SimulationError(f"retransmit timeout must be > 0, got {timeout}")
        if backoff < 1.0:
            raise SimulationError(f"retransmit backoff must be >= 1, got {backoff}")
        self._timeout = timeout
        self._backoff = backoff
        self._max_interval = max_interval if max_interval > 0 else 8.0 * timeout
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
                state.interval * self._backoff, self._max_interval
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
    its deltas (and its own digest when it wants a push back); the initiator
    then pushes the reverse delta.  Entries spread epidemically through
    relays, so evidence reaches its recipient even when every direct path
    keeps failing — and a healed partition backfills through the first
    cross-clique exchange.
    """

    name = "gossip"
    journaling = True

    def __init__(self, period: float = 1.0, fanout: int = 2) -> None:
        if period <= 0:
            raise SimulationError(f"gossip period must be > 0, got {period}")
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
            if push or wants_pull:
                plane.repair_send(
                    holder_id,
                    sender_id,
                    (
                        holder_id,
                        tuple(push),
                        journal.digest() if wants_pull else None,
                    ),
                    kind="repair-entries",
                )
        elif message.kind == "repair-entries":
            sender_id, entries, their_digest = message.payload
            plane.ingest_entries(holder_id, entries, now)
            if their_digest is not None:
                push_back = journal.entries_missing_from(their_digest)
                if push_back:
                    plane.repair_send(
                        holder_id,
                        sender_id,
                        (holder_id, tuple(push_back), None),
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
