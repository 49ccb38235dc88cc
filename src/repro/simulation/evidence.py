"""The evidence plane: how trust evidence travels between peers.

Historically the community simulation applied every round's interaction
outcomes to the peers' trust backends synchronously at tick end — evidence
was never late, never lost, never out of order, which is not how reputation
data moves through a P2P system.  The :class:`EvidencePlane` makes the
propagation model explicit and pluggable:

``sync``
    Evidence (observation batches, complaints, witness reports) is applied
    immediately — the default, and what the backward-compatible tests pin.
    A round's records and complaints arrive as one block
    (:meth:`EvidencePlane.submit_block`) and its witness questions as one
    set of columns, each applied in one pass.

``async``
    Every piece of evidence becomes a :class:`~repro.simulation.network.
    Message` routed through a :class:`~repro.simulation.network.
    SimulatedNetwork`, which keeps the plane's clock and delivery queue:
    observation ``update_many`` payloads, complaint filings and
    witness-report requests/replies all pay a sampled latency and face a
    drop probability, so trust state lags reality and may miss evidence.
    The community loop advances the clock once per tick
    (:meth:`EvidencePlane.advance`), delivering everything that has matured.

The plane carries three message kinds:

* ``evidence`` — a batch of :class:`~repro.reputation.records.
  InteractionRecord`s for one peer's backends (the ``update_many`` payload),
  originated by the interaction counterparty (its signed outcome receipt);
* ``complaint`` — a complaint filing routed to the community complaint sink;
* ``witness-request`` / ``witness-reply`` — a request for beliefs about a
  set of subjects and the witness's (policy-filtered) answer, landing in the
  requester's witness inbox for the next trust query.

In async mode every observation batch and complaint is wrapped in an
:class:`~repro.simulation.repair.EvidenceEntry` named ``(origin, seq)``,
each origin counting its entries up from 1: delivery is **idempotent**
(duplicates are suppressed before any backend or complaint-store write),
effective delivery is accounted per entry rather than per message, and
repair ``gossip`` recovers lost entries by anti-entropy through the same
lossy network — see :mod:`repro.simulation.repair`.  Witness requests and
replies are plain messages: no repair recovers them and the entry ledger
never counts them.  With repair ``off`` and zero loss the plane behaves
exactly as before the repair subsystem existed.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.obs.metrics import NULL_REGISTRY
from repro.simulation.network import (
    ExponentialLatency,
    LatencyModel,
    Message,
    NetworkCounters,
    SimulatedNetwork,
)
from repro.simulation.peer import (
    CommunityPeer,
    Filing,
    RecordBlock,
    WitnessQuestions,
    observe_block,
)
from repro.simulation.repair import (
    REPAIR_POLICIES,
    EntryCatalog,
    EvidenceEntry,
    EvidenceJournal,
    GossipPolicy,
)

__all__ = ["EVIDENCE_MODES", "EvidencePlane", "require_async_knobs"]

EVIDENCE_MODES = ("sync", "async")

#: Pseudo-recipient for complaint filings (the community complaint system).
COMPLAINT_SINK = "__complaint-sink__"

#: Message kinds owned by gossip repair rather than the evidence flow.
_REPAIR_KINDS = ("repair-digest", "repair-entries")


def _derived_complaints(block: RecordBlock) -> List[List[Tuple[str, str, float]]]:
    """Each batch's complaint filings that applying ``block`` causes.

    A peer's complaint backend turns every dishonest-partner observation
    into a filing against the partner in the shared store
    (:meth:`~repro.simulation.peer.RecordBlock.complaints`); the audit
    trail needs those filings on its ledger.
    """
    derived: List[List[Tuple[str, str, float]]] = [[] for _ in block.peers]
    for filer, batch, complaint in block.complaints():
        derived[batch].append(
            (filer.peer_id, complaint.accused_id, float(complaint.timestamp))
        )
    return derived


def require_async_knobs(mode: str, delayed: bool, repaired: bool) -> None:
    """Refuse delay, loss, repair or fault settings on a sync plane.

    A lossless zero-latency plane that *looks* configured for delay, loss,
    repair or link faults is a silent experiment-design bug: those knobs
    only act on the async plane.  ``delayed`` says whether latency, loss or
    a latency model is set, ``repaired`` whether a repair policy or a link
    fault is.  :class:`EvidencePlane` and
    :class:`~repro.simulation.community.CommunityConfig` both call this,
    so a bad configuration fails when it is built.
    """
    if mode != "sync":
        return
    if delayed:
        raise SimulationError(
            "evidence latency, loss and latency models require "
            "evidence mode 'async'"
        )
    if repaired:
        raise SimulationError(
            "evidence repair and link faults require evidence mode 'async'"
        )


class EvidencePlane:
    """Routes trust evidence between peers, synchronously or over the network.

    Parameters
    ----------
    mode:
        ``"sync"`` (apply immediately) or ``"async"`` (route as messages).
    latency:
        Mean one-way delay in simulation-time units (rounds).  With the
        default exponential latency model a mean of ``1.0`` roughly preserves
        the sync plane's evidence-next-round cadence, larger values make
        trust state progressively staler.
    loss:
        Per-message drop probability in ``[0, 1)`` — without repair lost
        evidence never arrives; with gossip repair, loss becomes extra
        convergence latency instead of information loss.
    latency_model:
        Overrides the latency distribution built from ``latency``.  A sync
        plane rejects ``latency > 0``, ``loss > 0`` and a latency model.
    rng:
        Drives loss sampling and latency draws (deterministic experiments
        hand in a seeded stream).
    repair:
        One of :data:`~repro.simulation.repair.REPAIR_POLICIES`: ``"off"``
        keeps fire-and-forget, ``"gossip"`` runs
        :class:`~repro.simulation.repair.GossipPolicy` anti-entropy.  Only
        meaningful in async mode.
    gossip_period, gossip_fanout:
        Tuning knobs of the gossip repair.
    repair_rng:
        Drives gossip partner selection (separate stream so enabling repair
        never perturbs the loss/latency draws of the evidence traffic).
    fault:
        Optional link-fault predicate ``(sender, recipient, now) -> bool``
        forwarded to the network — partition scenarios cut cliques apart
        with it.
    """

    def __init__(
        self,
        mode: str = "sync",
        latency: float = 0.0,
        loss: float = 0.0,
        latency_model: Optional[LatencyModel] = None,
        rng: Optional[random.Random] = None,
        repair: str = "off",
        gossip_period: float = 1.0,
        gossip_fanout: int = 2,
        repair_rng: Optional[random.Random] = None,
        fault=None,
    ):
        if mode not in EVIDENCE_MODES:
            raise SimulationError(
                f"evidence mode must be one of {EVIDENCE_MODES}, got {mode!r}"
            )
        if not 0.0 <= latency < math.inf:
            raise SimulationError(
                f"evidence latency must be finite and >= 0, got {latency}"
            )
        if not 0.0 <= loss < 1.0:
            raise SimulationError(f"evidence loss must lie in [0, 1), got {loss}")
        if repair not in REPAIR_POLICIES:
            raise SimulationError(
                f"evidence repair policy must be one of {REPAIR_POLICIES}, "
                f"got {repair!r}"
            )
        self._gossip: Optional[GossipPolicy] = None
        if repair == "gossip":
            self._gossip = GossipPolicy(
                self, period=gossip_period, fanout=gossip_fanout
            )
        require_async_knobs(
            mode,
            delayed=latency > 0 or loss > 0 or latency_model is not None,
            repaired=self._gossip is not None or fault is not None,
        )
        self._mode = mode
        self._peers: Dict[str, CommunityPeer] = {}
        self._network: Optional[SimulatedNetwork] = None
        self._repair_rng = (
            repair_rng if repair_rng is not None else random.Random(1)
        )
        #: Per-origin sequence counters for entry naming (1, 2, 3, ...).
        self._seq: Dict[str, int] = {}
        #: Per-holder journals over one entry catalog (gossip repair only).
        self._catalog = EntryCatalog() if self._gossip is not None else None
        self._journals: Dict[str, EvidenceJournal] = {}
        #: Keys of entries already applied (dedup guard).
        self._applied: Set[Tuple[str, int]] = set()
        #: Keys written off after their recipient churned out.
        self._expired: Set[Tuple[str, int]] = set()
        #: recipient -> keys of entries emitted to it but not yet applied.
        self._unapplied: Dict[str, Set[Tuple[str, int]]] = {}
        #: Optional independent audit ledger (see :mod:`repro.obs.audit`).
        self._audit = None
        #: Telemetry registry; the null registry keeps every hook a no-op.
        self._telemetry = NULL_REGISTRY
        if mode == "async":
            if latency_model is None:
                latency_model = ExponentialLatency(
                    mean=max(latency, 1e-9), minimum=0.0
                )
            self._network = SimulatedNetwork(
                latency=latency_model,
                loss_probability=loss,
                rng=rng if rng is not None else random.Random(0),
                fault=fault,
            )
            self._network.register(COMPLAINT_SINK, self._handle_message)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        return self._mode

    @property
    def is_async(self) -> bool:
        return self._mode == "async"

    @property
    def journaling(self) -> bool:
        """Whether peers keep evidence journals (gossip repair is on)."""
        return self._gossip is not None

    @property
    def repair_rng(self) -> random.Random:
        return self._repair_rng

    @property
    def counters(self) -> Optional[NetworkCounters]:
        """Traffic counters (``None`` in sync mode — nothing is on the wire)."""
        return self._network.counters if self._network is not None else None

    @property
    def pending_messages(self) -> int:
        """Evidence messages still in flight."""
        return self._network.pending if self._network is not None else 0

    @property
    def effective_delivery_ratio(self) -> float:
        """Post-repair fraction of evidence entries applied (1.0 when sync)."""
        counters = self.counters
        return 1.0 if counters is None else counters.effective_delivery_ratio

    @property
    def journals(self) -> Dict[str, EvidenceJournal]:
        """Per-holder evidence journals (populated under gossip repair)."""
        return dict(self._journals)

    def attach_audit(self, trail) -> None:
        """Feed emit/apply/expire events into an independent audit ledger.

        Must be attached before the run starts — the trail needs to see
        every event to reconcile afterwards (see :mod:`repro.obs.audit`).
        """
        self._audit = trail

    def bind_telemetry(self, registry) -> None:
        """Report the plane's traffic through a metrics registry.

        The authoritative counters stay on :class:`NetworkCounters`; the
        registry gets a *view* over them, so ``telemetry=off`` costs
        nothing and the attribute API is unchanged.
        """
        self._telemetry = registry
        if registry.enabled and self._network is not None:
            registry.add_view("evidence", self._network.counters.metrics_view)

    def registered_ids(self) -> Tuple[str, ...]:
        """Currently registered peer ids in deterministic (sorted) order."""
        return tuple(sorted(self._peers))

    def is_registered(self, peer_id: str) -> bool:
        return peer_id in self._peers

    # ------------------------------------------------------------------
    # Peer registration
    # ------------------------------------------------------------------
    def register_peer(self, peer: CommunityPeer) -> None:
        self._peers[peer.peer_id] = peer
        if self._network is not None:
            self._network.register(peer.peer_id, self._handle_message)

    def unregister_peer(self, peer_id: str) -> None:
        """Remove a departed peer, writing off evidence it can never apply.

        Entries addressed to the departed peer (queued, in flight, or held
        only in journals) are counted as ``entries_expired`` rather than
        left dangling.  Under gossip, unapplied entries whose origin is gone
        — this peer or one that left earlier — and that survive in no
        remaining journal are written off too (the departing peer may have
        held the last copy), so drain loops terminate and the
        effective-delivery accounting stays honest under churn.
        """
        self._peers.pop(peer_id, None)
        if self._network is None:
            return
        self._network.unregister(peer_id)
        counters = self._network.counters
        for key in self._unapplied.pop(peer_id, ()):  # addressed to departed
            self._expire(key, counters)
        self._journals.pop(peer_id, None)
        if self._catalog is not None:
            # An entry whose origin has left survives only while some
            # remaining journal holds a copy — and the departing peer's
            # journal may have been the last one, even for an origin that
            # left earlier.  A copy already in flight can still land
            # (application then reconciles the write-off).  With repair
            # off, unapplied entries are the plain missing-evidence
            # baseline and stay on the ledger as such.
            orphaned = [
                key
                for keys in self._unapplied.values()
                for key in keys
                if key[0] not in self._peers
            ]
            if orphaned:
                held = np.zeros(len(self._catalog), dtype=bool)
                for journal in self._journals.values():
                    digest = journal.digest()
                    held[: len(digest)] |= digest
                id_of = self._catalog.id_of
                for key in orphaned:
                    if not held[id_of(key)]:
                        self._expire(key, counters)

    def _expire(self, key: Tuple[str, int], counters: NetworkCounters) -> None:
        if key in self._applied or key in self._expired:
            return
        self._expired.add(key)
        counters.entries_expired += 1
        if self._audit is not None:
            self._audit.on_expired(key)
        for keys in self._unapplied.values():
            keys.discard(key)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def advance(self, now: float) -> int:
        """Deliver every message matured by ``now`` and run one repair round."""
        if self._network is None or now < self._network.now:
            return 0
        delivered = self._network.deliver_until(now)
        if self._gossip is not None:
            self._gossip.on_round(now)
        return delivered

    def drain(self, max_ticks: int = 200) -> int:
        """Keep ticking until the plane converges (or ``max_ticks`` pass).

        Advances the clock one tick at a time past the simulation horizon so
        in-flight messages mature and gossip can finish recovering lost
        entries; returns the number of extra ticks consumed.  With repair
        ``off`` this simply flushes the in-flight queue.
        """
        network = self._network
        if network is None:
            return 0
        ticks = 0
        while ticks < max_ticks:
            if self._gossip is not None:
                # Gossip chatter never leaves the wire fully idle; what
                # matters is that every emitted entry has been applied or
                # written off (a journal still holds every other one, so
                # anti-entropy will eventually carry it home), and that no
                # write-off can still reverse.
                working = (
                    network.counters.missing_entries > 0
                    or self._write_off_reversible()
                )
            else:
                working = network.pending > 0
            if not working:
                break
            self.advance(network.now + 1.0)
            ticks += 1
        return ticks

    def _write_off_reversible(self) -> bool:
        """Whether a written-off entry can still land and be applied.

        A write-off of an entry whose recipient is still registered (or is
        the complaint sink) reverses when a copy in flight lands, either as
        the entry itself or in a ``repair-entries`` batch.  A drain that
        stopped before then would report an expiry that is not final.  The
        scan runs only while something is written off.
        """
        if not self._expired:
            return False
        catalog = self._catalog
        assert catalog is not None and self._network is not None
        live = np.zeros(len(catalog), dtype=bool)
        for key in self._expired:
            gid = catalog.id_of(key)
            recipient_id = catalog.entry(gid).recipient_id
            live[gid] = recipient_id == COMPLAINT_SINK or recipient_id in self._peers
        if not live.any():
            return False
        for message in self._network.queued():
            if message.kind == "repair-entries":
                if live[message.payload[1]].any():
                    return True
            elif message.kind in ("evidence", "complaint"):
                if live[catalog.id_of(message.payload.key)]:
                    return True
        return False

    # ------------------------------------------------------------------
    # Evidence submission
    # ------------------------------------------------------------------
    def submit_records(
        self,
        recipient_id: str,
        records: Sequence,
        sender_id: Optional[str] = None,
    ) -> None:
        """Route one ``update_many`` payload (a record batch) to a peer.

        Sync: applied to the peer's stores immediately, as a one-batch
        :meth:`submit_block`.  Async: one message on the wire — a single
        loss event costs the whole batch.  ``sender_id`` names the
        counterparty the batch originates from (its outcome receipt); it
        defaults to the recipient for callers that predate the repair
        subsystem.
        """
        if not records:
            return
        if self._network is None:
            peer = self._peers.get(recipient_id)
            if peer is not None:
                self.submit_block(RecordBlock.of_peer(peer, records))
            return
        origin = sender_id if sender_id is not None else recipient_id
        self._emit(origin, recipient_id, "evidence", tuple(records))

    def submit_complaint(
        self, filer: CommunityPeer, accused_id: str, timestamp: float = 0.0
    ) -> None:
        """Route a complaint filing through the plane to the complaint system."""
        if self._network is None:
            self.submit_block(None, ((filer, accused_id, timestamp),))
            return
        # The payload carries the filer itself (not just its id): a complaint
        # already in flight still reaches the shared store even when the
        # filer churns out before the message matures.
        self._emit(
            filer.peer_id, COMPLAINT_SINK, "complaint", (filer, accused_id, timestamp)
        )

    def submit_block(
        self, block: Optional[RecordBlock], filings: Sequence[Filing] = ()
    ) -> None:
        """Apply a block of record batches and complaint filings (sync only).

        One write per store (:func:`~repro.simulation.peer.observe_block`):
        the state equals one :meth:`submit_records` per batch followed by
        one :meth:`submit_complaint` per filing, and the audit trail is told
        of each batch and each filing as those calls tell it.
        """
        if self._network is not None:
            raise SimulationError("an async plane sends its evidence as messages")
        observe_block(block, filings)
        if block is not None and len(block):
            if self._audit is not None:
                for (peer, start, end), derived in zip(
                    block.batches(), _derived_complaints(block)
                ):
                    self._audit.on_applied(
                        None,
                        "evidence",
                        peer.peer_id,
                        end - start,
                        derived_complaints=derived,
                    )
            self._telemetry.count("evidence.records_applied", len(block))
        if filings:
            if self._audit is not None:
                for filer, accused_id, timestamp in filings:
                    self._audit.on_applied(
                        None,
                        "complaint",
                        COMPLAINT_SINK,
                        1,
                        complaint=(filer.peer_id, accused_id, float(timestamp)),
                    )
            self._telemetry.count("evidence.complaints_applied", len(filings))

    def request_witness_reports(self, rows: WitnessQuestions) -> None:
        """Ask witnesses about subjects, one row of ``rows`` per question;
        rows whose witness is the requester are skipped.

        Sync: :meth:`~repro.simulation.peer.WitnessQuestions.answers`
        answers every row whose requester and witness are registered, and
        the reports sent land in the requesters' witness inboxes in row
        order.  Async: one ``witness-request`` message per row, in row
        order, which the witness answers on delivery with one
        ``witness-reply`` — either leg can be dropped or delayed, and
        neither is repaired.
        """
        asked = rows.requesters != rows.witnesses
        if not asked.all():
            rows = rows._replace(
                requesters=rows.requesters[asked],
                witnesses=rows.witnesses[asked],
                subjects=rows.subjects[asked],
            )
        self._telemetry.count("evidence.witness_requests", len(rows.requesters))
        names, peers = rows.names, rows.peers
        if self._network is not None:
            send = self._network.send
            for requester, witness, subject in zip(
                rows.requesters.tolist(), rows.witnesses.tolist(), rows.subjects.tolist()
            ):
                requester_id = names[requester]
                send(
                    requester_id,
                    names[witness],
                    (requester_id, (names[subject],)),
                    kind="witness-request",
                )
            return
        answered, reports = rows.answers()
        for requester, witness, report in zip(
            rows.requesters[answered].tolist(), rows.witnesses[answered].tolist(), reports
        ):
            witness_peer = peers[witness]
            assert witness_peer is not None
            peers[requester].receive_witness_reports(  # type: ignore[union-attr]
                witness_peer.peer_id, (report,), witness_peer
            )
        self._telemetry.count("evidence.witness_reports", len(reports))

    # ------------------------------------------------------------------
    # Entry plumbing (async only)
    # ------------------------------------------------------------------
    def _emit(self, origin_id: str, recipient_id: str, kind: str, payload) -> None:
        """Name a new entry ``(origin, next seq)``, ledger it and send it."""
        seq = self._seq[origin_id] = self._seq.get(origin_id, 0) + 1
        assert self._network is not None
        entry = EvidenceEntry(
            origin_id=origin_id,
            seq=seq,
            recipient_id=recipient_id,
            kind=kind,
            payload=payload,
            emitted_at=self._network.now,
        )
        counters = self._network.counters
        counters.entries_emitted += 1
        if self._audit is not None:
            units = len(payload) if kind == "evidence" else 1
            self._audit.on_emitted(entry.key, kind, recipient_id, units)
        if recipient_id == COMPLAINT_SINK or recipient_id in self._peers:
            self._unapplied.setdefault(recipient_id, set()).add(entry.key)
        else:
            # Addressed to nobody: written off at emission so the
            # effective-delivery ledger balances.
            self._expired.add(entry.key)
            counters.entries_expired += 1
            if self._audit is not None:
                self._audit.on_expired(entry.key)
        if self._catalog is not None:
            self.journal_for(origin_id).add(entry)
        self._network.send(origin_id, recipient_id, entry, kind=kind)

    # Helpers gossip repair calls ----------------------------------------
    def journal_for(self, holder_id: str) -> EvidenceJournal:
        journal = self._journals.get(holder_id)
        if journal is None:
            assert self._catalog is not None
            journal = self._journals[holder_id] = EvidenceJournal(self._catalog)
        return journal

    def repair_send(
        self, sender_id: str, recipient_id: str, payload, kind: str
    ) -> bool:
        """Send one repair-plane message (tallied in ``repair_messages``)."""
        assert self._network is not None
        self._network.counters.repair_messages += 1
        return self._network.send(sender_id, recipient_id, payload, kind=kind)

    def ingest_entry(
        self, holder_id: str, entry: EvidenceEntry, now: float
    ) -> None:
        """Fold one gossip-relayed entry into ``holder_id``'s journal."""
        assert self._catalog is not None
        ids = np.array([self._catalog.intern(entry)], dtype=np.int64)
        self.ingest_entries(holder_id, ids, now)

    def ingest_entries(self, holder_id: str, ids: np.ndarray, now: float) -> None:
        """Fold a batch of gossip-relayed catalog ids into a journal.

        The holder stores (and will relay) every entry regardless of who it
        is addressed to; a fresh entry is *applied* only when the holder is
        its recipient (or, for complaint entries, forwarded to the sink so
        the filing pays the same network path every direct complaint does).
        The whole batch of distinct ids is journaled first and the fresh
        entries are then handled in batch order; applying never reads a
        journal, so this is the entry-by-entry outcome.
        """
        assert self._catalog is not None
        fresh = self.journal_for(holder_id).add_ids(ids)
        if self._network is not None:
            self._network.counters.duplicates_suppressed += len(ids) - len(fresh)
        # Only entries addressed to the holder or the complaint sink need
        # handling; every other fresh entry is just held for relaying.
        targets = self._catalog.addressed(fresh, holder_id, COMPLAINT_SINK)
        for entry in map(self._catalog.entry, targets.tolist()):
            if entry.recipient_id == holder_id:
                self._apply_entry(entry, now)
            elif (
                entry.recipient_id == COMPLAINT_SINK
                and entry.key not in self._applied
            ):
                # A relayed complaint is forwarded to the community store by
                # the first holder to learn of it — through the network, so
                # a partitioned holder still cannot reach the store until
                # heal.
                self.repair_send(
                    holder_id, COMPLAINT_SINK, entry, kind=entry.kind
                )

    # ------------------------------------------------------------------
    # Message handling (async deliveries)
    # ------------------------------------------------------------------
    def _handle_message(self, message: Message) -> None:
        assert self._network is not None
        now = self._network.now
        if message.kind in _REPAIR_KINDS:
            assert self._gossip is not None
            self._gossip.on_repair_message(message, now)
            return
        if message.kind in ("witness-request", "witness-reply"):
            self._deliver_witness(message)
            return
        entry: EvidenceEntry = message.payload
        holder_id = message.recipient_id
        if self._catalog is not None and holder_id != COMPLAINT_SINK:
            self.journal_for(holder_id).add(entry)
        if entry.key in self._applied:
            self._network.counters.duplicates_suppressed += 1
        else:
            # An entry already written off as expired may still arrive (a
            # copy that was in flight when its origin churned);
            # _apply_entry reconciles the ledger in that case.
            self._apply_entry(entry, now)

    def _deliver_witness(self, message: Message) -> None:
        """Answer a witness request, or hand a reply to the requester."""
        # The network delivers only to registered peers (never the sink).
        peer = self._peers[message.recipient_id]
        if message.kind == "witness-request":
            requester_id, subjects = message.payload
            reports = peer.build_witness_reports(subjects)
            if reports:
                assert self._network is not None
                self._network.send(
                    peer.peer_id,
                    requester_id,
                    (peer.peer_id, tuple(reports)),
                    kind="witness-reply",
                )
        else:
            witness_id, reports = message.payload
            peer.receive_witness_reports(
                witness_id, reports, self._peers.get(witness_id)
            )
            self._telemetry.count("evidence.witness_reports", len(reports))

    def _apply_entry(self, entry: EvidenceEntry, now: float) -> None:
        """Apply a fresh entry to its destination, exactly once."""
        applied = False
        complaint = None
        block = None
        if entry.kind == "evidence":
            peer = self._peers.get(entry.recipient_id)
            if peer is not None:
                block = RecordBlock.of_peer(peer, entry.payload)
                observe_block(block)
                applied = True
        elif entry.kind == "complaint":
            filer, accused_id, timestamp = entry.payload
            filer.file_complaint(accused_id, timestamp=timestamp)
            complaint = (filer.peer_id, accused_id, float(timestamp))
            applied = True
        if not applied:
            return
        assert self._network is not None
        counters = self._network.counters
        self._applied.add(entry.key)
        counters.entries_applied += 1
        counters.convergence_lags.append(now - entry.emitted_at)
        if self._audit is not None:
            if block is not None:
                units, (derived,) = len(block), _derived_complaints(block)
            else:
                units, derived = 1, []
            self._audit.on_applied(
                entry.key, entry.kind, entry.recipient_id, units,
                complaint=complaint, derived_complaints=derived,
            )
        if entry.key in self._expired:
            # A copy outran the write-off (e.g. it was in flight while its
            # origin churned): reconcile the ledger.
            self._expired.remove(entry.key)
            counters.entries_expired -= 1
            if self._audit is not None:
                self._audit.on_unexpired(entry.key)
        self._unapplied.get(entry.recipient_id, set()).discard(entry.key)
