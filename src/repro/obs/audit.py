"""Evidence reconciliation: audit a run's trust state against its ledger.

The evidence plane names every persistent unit of evidence ``(origin,
seq)`` and keeps per-peer :class:`~repro.simulation.repair.
EvidenceJournal`s under journaling repair policies — but nothing verified
end to end that every entry the ledger claims was delivered actually
landed in backend state *exactly once*.  This module closes that loop,
in the spirit of a central index reconciling distributed uploads:

* :class:`EvidenceAuditTrail` — an independent ledger the plane feeds
  through explicit hook points (emit / apply / expire).  It records what
  *should* be in the backends: per-recipient observation-record units,
  the multiset of complaint filings, and per-key application counts.
* :func:`reconcile` — cross-checks the trail against the plane's
  counters, the complaint store's actual contents, the union of the
  journals, and per-peer backend row counts, producing an
  :class:`AuditReport` with per-peer / per-shard divergences.
* :func:`collect_audit_inputs` — extracts the actual state from a
  finished :class:`~repro.simulation.community.CommunitySimulation`
  (duck-typed so this module stays a dependency-free leaf).
* :func:`inject_double_apply` / :func:`inject_dropped_entry` — fault
  injectors the mutation tests use to prove the audit actually detects
  divergence rather than vacuously passing.

The report serialises in the ``BENCH_*.json`` shape (``{name, metrics,
bars, passed}``, timestamp-free) so divergence reports diff cleanly in
CI artifacts alongside the benchmark results.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "AuditReport",
    "EvidenceAuditTrail",
    "collect_audit_inputs",
    "inject_double_apply",
    "inject_dropped_entry",
    "reconcile",
]

Key = Tuple[str, int]
ComplaintTuple = Tuple[str, str, float]


class EvidenceAuditTrail:
    """What the evidence plane *believes* it delivered, recorded first-hand.

    The plane calls the ``on_*`` hooks at its emit / apply / expire
    points; the trail never touches backend state, so a later
    :func:`reconcile` compares two genuinely independent ledgers.
    Synchronous applications (no ``(origin, seq)`` naming) are recorded
    with ``key=None`` — they have no entry identity but still count
    toward the per-recipient and complaint expectations.
    """

    def __init__(self) -> None:
        #: key -> (kind, recipient_id, payload units) for async entries.
        self.emitted: Dict[Key, Tuple[str, str, int]] = {}
        #: key -> number of times the plane applied it (should be <= 1).
        self.applied_counts: Dict[Key, int] = {}
        #: Keys written off (recipient churned / addressed to nobody).
        self.expired: Set[Key] = set()
        #: recipient peer id -> observation records applied to its backends.
        self.record_units: Dict[str, int] = {}
        #: Multiset of complaint filings applied to the community store.
        self.complaints: List[ComplaintTuple] = []
        #: Applications without entry naming (sync plane).
        self.sync_applications = 0

    # -- hooks (called by the evidence plane) ---------------------------

    def on_emitted(self, key: Key, kind: str, recipient_id: str, units: int) -> None:
        self.emitted[key] = (kind, recipient_id, units)

    def on_applied(
        self,
        key: Optional[Key],
        kind: str,
        recipient_id: str,
        units: int,
        complaint: Optional[ComplaintTuple] = None,
        derived_complaints: Iterable[ComplaintTuple] = (),
    ) -> None:
        if key is None:
            self.sync_applications += 1
        else:
            self.applied_counts[key] = self.applied_counts.get(key, 0) + 1
        if kind == "evidence":
            self.record_units[recipient_id] = (
                self.record_units.get(recipient_id, 0) + units
            )
        if complaint is not None:
            self.complaints.append(complaint)
        # Applying an observation batch also files complaints: the
        # recipient's complaint backend derives one filing per record whose
        # partner defected.  The plane passes those here so the store
        # comparison accounts for every write path.
        self.complaints.extend(derived_complaints)

    def on_expired(self, key: Key) -> None:
        self.expired.add(key)

    def on_unexpired(self, key: Key) -> None:
        """A written-off entry landed after all (ledger reconciliation)."""
        self.expired.discard(key)

    # -- derived --------------------------------------------------------

    @property
    def applied_total(self) -> int:
        return sum(self.applied_counts.values())

    def metrics_view(self) -> Dict[str, int]:
        """Registry view: the trail's own tallies (deterministic)."""
        return {
            "entries_emitted": len(self.emitted),
            "entries_applied": self.applied_total,
            "entries_expired": len(self.expired),
            "sync_applications": self.sync_applications,
            "complaints_applied": len(self.complaints),
        }


class AuditReport:
    """Outcome of one reconciliation pass.

    ``checks`` maps check name to ``{"value": <divergence count>,
    "limit": 0, "ok": bool}`` (the ``BENCH_*.json`` bar shape);
    ``divergences`` lists every individual mismatch with its peer and
    (when the store is sharded) shard; ``metrics`` carries the audited
    totals.  Everything is deterministic for a seeded run.
    """

    def __init__(
        self,
        checks: Dict[str, Dict[str, Any]],
        divergences: List[Dict[str, Any]],
        metrics: Dict[str, Any],
    ) -> None:
        self.checks = checks
        self.divergences = divergences
        self.metrics = metrics

    @property
    def passed(self) -> bool:
        return all(entry["ok"] for entry in self.checks.values())

    def to_payload(self, name: str = "audit") -> Dict[str, Any]:
        """The report in the ``BENCH_*.json`` format (timestamp-free)."""
        return {
            "name": name,
            "metrics": {**self.metrics, "divergences": self.divergences},
            "bars": dict(self.checks),
            "passed": self.passed,
        }

    def render(self) -> str:
        lines = ["Evidence audit:"]
        for check in sorted(self.checks):
            entry = self.checks[check]
            verdict = "ok" if entry["ok"] else "DIVERGED"
            lines.append(
                "  {:<28} {:>6} divergence(s)  [{}]".format(
                    check, entry["value"], verdict
                )
            )
        for divergence in self.divergences[:20]:
            where = divergence.get("peer", "-")
            shard = divergence.get("shard")
            if shard is not None:
                where = "{} (shard {})".format(where, shard)
            lines.append(
                "    {}: {} — {}".format(
                    divergence["check"], where, divergence["detail"]
                )
            )
        if len(self.divergences) > 20:
            lines.append(
                "    ... {} more divergences".format(len(self.divergences) - 20)
            )
        lines.append(
            "  verdict: {}".format("CLEAN" if self.passed else "DIVERGED")
        )
        return "\n".join(lines)


def _check(value: int) -> Dict[str, Any]:
    return {"value": value, "limit": 0, "ok": value == 0}


def reconcile(
    trail: EvidenceAuditTrail,
    *,
    counters: Any = None,
    store_complaints: Iterable[ComplaintTuple] = (),
    shard_of: Optional[Callable[[str], Any]] = None,
    journal_keys: Optional[Mapping[str, Set[Key]]] = None,
    observation_totals: Optional[Mapping[str, int]] = None,
    require_settled: bool = False,
) -> AuditReport:
    """Cross-check the trail against the run's actual end state.

    Checks (each a ``BENCH``-style bar whose value is its divergence
    count):

    ``plane_double_apply``
        No ``(origin, seq)`` entry was applied more than once.
    ``plane_unknown_apply``
        Nothing was applied that was never emitted.
    ``ledger_consistency``
        The trail agrees with ``NetworkCounters``'s entry ledger
        (emitted / applied / expired), so neither bookkeeping drifted.
    ``complaint_store``
        The complaint store's contents equal, as a multiset, exactly the
        filings the plane applied — no duplicates, no drops.  Mismatches
        are reported per accused peer (and per shard when the store
        routes by peer id).
    ``journal_coverage``
        Under journaling repair (gossip) after a full drain, every
        persistent journaled entry is accounted for: applied or expired.
        Skipped otherwise (``require_settled=False``).
    ``backend_observations``
        Every peer's trust backend holds exactly as many observation
        rows as the plane delivered records to it.

    Entries emitted but neither applied nor expired are the configured
    network loss with repair off — reported as ``missing_entries`` in
    the metrics, not as a divergence.
    """
    checks: Dict[str, Dict[str, Any]] = {}
    divergences: List[Dict[str, Any]] = []

    # -- plane-level dedup invariants -----------------------------------
    multi = sorted(
        key for key, count in trail.applied_counts.items() if count > 1
    )
    checks["plane_double_apply"] = _check(len(multi))
    for key in multi:
        divergences.append(
            {
                "check": "plane_double_apply",
                "peer": key[0],
                "detail": "entry {} applied {} times".format(
                    list(key), trail.applied_counts[key]
                ),
            }
        )
    unknown = sorted(
        key for key in trail.applied_counts if key not in trail.emitted
    )
    checks["plane_unknown_apply"] = _check(len(unknown))
    for key in unknown:
        divergences.append(
            {
                "check": "plane_unknown_apply",
                "peer": key[0],
                "detail": "entry {} applied but never emitted".format(list(key)),
            }
        )

    # -- trail vs. NetworkCounters ledger -------------------------------
    ledger_diffs = 0
    if counters is not None:
        for label, expected, actual in (
            ("entries_emitted", len(trail.emitted), counters.entries_emitted),
            ("entries_applied", trail.applied_total, counters.entries_applied),
            ("entries_expired", len(trail.expired), counters.entries_expired),
        ):
            if expected != actual:
                ledger_diffs += 1
                divergences.append(
                    {
                        "check": "ledger_consistency",
                        "peer": "-",
                        "detail": "{}: trail {} != counters {}".format(
                            label, expected, actual
                        ),
                    }
                )
    checks["ledger_consistency"] = _check(ledger_diffs)

    # -- complaint store vs. applied filings ----------------------------
    expected_complaints = Counter(trail.complaints)
    actual_complaints = Counter(tuple(item) for item in store_complaints)
    store_diffs = 0
    per_shard: Dict[str, int] = {}
    for filing in sorted(set(expected_complaints) | set(actual_complaints)):
        want = expected_complaints.get(filing, 0)
        have = actual_complaints.get(filing, 0)
        if want == have:
            continue
        store_diffs += 1
        accused = filing[1]
        shard = shard_of(accused) if shard_of is not None else None
        if shard is not None:
            per_shard[str(shard)] = per_shard.get(str(shard), 0) + 1
        divergence: Dict[str, Any] = {
            "check": "complaint_store",
            "peer": accused,
            "detail": "filing ({} -> {} @ {:g}): expected {}, in store {}".format(
                filing[0], filing[1], filing[2], want, have
            ),
        }
        if shard is not None:
            divergence["shard"] = shard
        divergences.append(divergence)
    checks["complaint_store"] = _check(store_diffs)

    # -- journal coverage (journaling repair, fully drained runs) -------
    journal_diffs = 0
    if journal_keys is not None and require_settled:
        union: Set[Key] = set()
        for keys in journal_keys.values():
            union.update(keys)
        settled = set(trail.applied_counts) | trail.expired
        for key in sorted(union - settled):
            # Journals also hold relayed third-party copies of entries the
            # trail knows; only entries the plane actually emitted are in
            # scope.
            if key not in trail.emitted:
                continue
            journal_diffs += 1
            divergences.append(
                {
                    "check": "journal_coverage",
                    "peer": key[0],
                    "detail": "journaled entry {} neither applied nor expired".format(
                        list(key)
                    ),
                }
            )
    checks["journal_coverage"] = _check(journal_diffs)

    # -- backend observation rows vs. delivered records -----------------
    observation_diffs = 0
    if observation_totals is not None:
        peer_ids = sorted(set(observation_totals) | set(trail.record_units))
        for peer_id in peer_ids:
            want = trail.record_units.get(peer_id, 0)
            have = observation_totals.get(peer_id)
            if have is None:
                # Delivered to a peer the collector no longer sees (it
                # churned out and was discarded); nothing to compare.
                continue
            if want != have:
                observation_diffs += 1
                divergences.append(
                    {
                        "check": "backend_observations",
                        "peer": peer_id,
                        "detail": "backend holds {} observations, plane delivered {}".format(
                            have, want
                        ),
                    }
                )
    checks["backend_observations"] = _check(observation_diffs)

    metrics: Dict[str, Any] = dict(trail.metrics_view())
    metrics["complaints_in_store"] = sum(actual_complaints.values())
    metrics["missing_entries"] = (
        len(trail.emitted) - trail.applied_total - len(trail.expired)
    )
    metrics["peers_audited"] = (
        len(observation_totals) if observation_totals is not None else 0
    )
    metrics["journals_audited"] = (
        len(journal_keys) if journal_keys is not None else 0
    )
    if per_shard:
        metrics["divergences_per_shard"] = {
            shard: per_shard[shard] for shard in sorted(per_shard)
        }
    return AuditReport(checks, divergences, metrics)


def collect_audit_inputs(simulation: Any, store: Any = None) -> Dict[str, Any]:
    """Extract the actual end-of-run state :func:`reconcile` compares against.

    Duck-typed over :class:`~repro.simulation.community.
    CommunitySimulation` (live plus departed peers), the shared complaint
    store, and the evidence plane — this module imports nothing from the
    rest of ``repro``.
    """
    plane = simulation.evidence_plane
    peers = list(simulation.peers)
    departed = list(getattr(simulation, "departed_peers", ()))
    everyone = peers + departed
    if store is None and everyone:
        store = everyone[0].backend_for("complaint")
    store_complaints: List[ComplaintTuple] = []
    if store is not None:
        store_complaints = [
            (c.complainant_id, c.accused_id, float(c.timestamp))
            for c in store.all_complaints()
        ]
    journal_keys: Optional[Dict[str, Set[Key]]] = None
    if plane.journaling:
        journal_keys = {
            holder: set(journal.keys())
            for holder, journal in plane.journals.items()
        }
    observation_totals: Dict[str, int] = {}
    for peer in everyone:
        backend = peer.backend_for("beta")
        observation_totals[peer.peer_id] = sum(
            backend.observation_count(subject)
            for subject in backend.known_subjects()
        )
    return {
        "counters": plane.counters,
        "store_complaints": store_complaints,
        "shard_of": getattr(store, "shard_index_of", None),
        "journal_keys": journal_keys,
        "observation_totals": observation_totals,
    }


# ----------------------------------------------------------------------
# Fault injection (mutation testing of the audit itself)
# ----------------------------------------------------------------------
def inject_double_apply(store: Any) -> ComplaintTuple:
    """Re-apply an already-filed complaint directly to the store.

    Bypasses the evidence plane (and therefore its dedup and the audit
    trail), simulating a backend that applied one ``(origin, seq)``
    filing twice.  Returns the duplicated filing; a subsequent
    :func:`reconcile` must flag it under ``complaint_store``.
    """
    complaints = sorted(
        store.all_complaints(),
        key=lambda c: (c.complainant_id, c.accused_id, c.timestamp),
    )
    if not complaints:
        raise ValueError("cannot inject a double-apply: store holds no complaints")
    victim = complaints[0]
    store.record_complaints([victim])
    return (victim.complainant_id, victim.accused_id, float(victim.timestamp))


def inject_dropped_entry(store: Any) -> ComplaintTuple:
    """Silently remove one applied complaint from the store.

    Round-trips the store through its snapshot with one filed complaint
    deleted from its log (and that filing's counters decremented),
    simulating an applied entry whose state write was lost.  Works on
    plain and sharded stores: in a sharded manifest each
    cross-shard complaint is stored twice, so the dropped row is taken
    from its *accused-home* shard — the copy :meth:`all_complaints`
    reports.  Returns the dropped filing; a subsequent :func:`reconcile`
    must flag it under ``complaint_store``.
    """
    state = dict(store.snapshot_items())
    if "complainants" in state:
        prefixes = [""]
    else:  # sharded manifest: one shard-NNNN/ group per shard
        prefixes = sorted(
            {
                key.partition("/")[0] + "/"
                for key in state
                if key.endswith("/complainants")
            }
        )
    shard_of = getattr(store, "shard_index_of", None)
    for prefix in reversed(prefixes):
        complainants = [str(item) for item in state[prefix + "complainants"]]
        accused = [str(item) for item in state[prefix + "accused"]]
        timestamps = [float(item) for item in state[prefix + "timestamps"]]
        home = int(prefix[len("shard-"):-1]) if prefix else None
        for row in range(len(complainants) - 1, -1, -1):
            if (
                home is not None
                and shard_of is not None
                and shard_of(accused[row]) != home
            ):
                continue  # complainant-home copy; all_complaints skips it
            dropped = (complainants[row], accused[row], timestamps[row])
            del complainants[row], accused[row], timestamps[row]
            peer_ids = [str(item) for item in state[prefix + "peer_ids"]]
            index = {
                peer_id: position for position, peer_id in enumerate(peer_ids)
            }
            received = [float(item) for item in state[prefix + "received"]]
            filed = [float(item) for item in state[prefix + "filed"]]
            accused_row = index.get(dropped[1])
            filer_row = index.get(dropped[0])
            if accused_row is not None:
                received[accused_row] = max(0.0, received[accused_row] - 1.0)
            if filer_row is not None:
                filed[filer_row] = max(0.0, filed[filer_row] - 1.0)
            state[prefix + "complainants"] = complainants
            state[prefix + "accused"] = accused
            state[prefix + "timestamps"] = timestamps
            state[prefix + "received"] = received
            state[prefix + "filed"] = filed
            store.restore(state)
            return dropped
    raise ValueError("cannot inject a drop: store holds no complaints")
