"""Per-layer tracing from outside the program.

The benchmark never edits ``src/repro``.  For a traced run it replaces the
public entry point of each layer with a wrapper that records a span (name,
start, end, parent) or only bumps a counter, runs the simulation, and puts
every original back.  Functions called millions of times (``shard_of``,
``digest``, ``ingest_entry``) are counted only, so that their wrappers do not
swamp the trace.

A layer's self time is its spans' durations minus the time covered by their
direct child spans; summed over every span it equals the summed duration of
the root spans, which is the traced total.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Timed layers: span name -> name of its call-count metric (None: no count).
#: ``setup.build``, ``community.self`` and ``evidence.drain`` are the root
#: spans the traced run opens itself; the rest wrap program entry points.
TIMED_LAYERS: Dict[str, Optional[str]] = {
    "setup.build": None,
    "community.self": None,
    "churn.apply": "churn.apply_calls",
    "listings.sample": "listings.bundles",
    "match.score": "match.score_calls",
    "peer.trust_in": "peer.trust_in_calls",
    "peer.witness_trust": "peer.witness_trust_calls",
    "match.select": "match.select_calls",
    "exchange.screen": "exchange.screen_calls",
    "exchange.run": "exchange.run_calls",
    "evidence.records": "evidence.records_calls",
    "evidence.complaint": "evidence.complaint_calls",
    "evidence.witness": "evidence.witness_calls",
    "evidence.advance": "evidence.advance_calls",
    "evidence.drain": None,
    "repair.missing_scan": "repair.missing_scan_calls",
}

#: ``tally(counts, args, result)`` adds a wrapped call's work to the counts.
Tally = Callable[[Counter, tuple, Any], None]


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def wrap(
        self,
        original: Callable,
        span: Optional[str],
        calls: Optional[str] = None,
        tally: Optional[Tally] = None,
    ) -> Callable:
        """``original`` behind a span and/or a call counter."""
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if calls is not None:
                counts[calls] += 1
            if span is None:
                result = original(*args, **kwargs)
            else:
                record = self._open(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(record)
            if tally is not None:
                tally(counts, args, result)
            return result

        return wrapper

    def durations(self, name: str, at: Callable[[float], float] = float) -> List[float]:
        """Durations of every span called ``name``, in start order.

        ``at`` maps each start and end time first.
        """
        return [at(end) - at(start) for span, start, end, _ in self.spans if span == name]

    def retime(self, at: Callable[[float], float]) -> None:
        """Map every span's start and end time by ``at``, in place."""
        for record in self.spans:
            record[1], record[2] = at(record[1]), at(record[2])

    def self_times(self) -> Tuple[Dict[str, float], float]:
        """Per-span-name self time, and the summed duration of root spans."""
        own = [end - start for _, start, end, _ in self.spans]
        roots = 0.0
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
            else:
                roots += end - start
        per_name: Dict[str, List[float]] = {}
        for (name, _, _, _), value in zip(self.spans, own):
            per_name.setdefault(name, []).append(value)
        return {name: math.fsum(values) for name, values in per_name.items()}, roots


def _add(key: str, amount: Callable[[tuple, Any], float]) -> Tally:
    def tally(counts: Counter, args: tuple, result: Any) -> None:
        counts[key] += amount(args, result)

    return tally


def _churn_tally(counts: Counter, args: tuple, event: Any) -> None:
    counts["churn.arrivals"] += len(event.arrived)
    counts["churn.departures"] += len(event.departed)


def _screen_tally(counts: Counter, args: tuple, keep: Any) -> None:
    counts["exchange.screen_candidates"] += len(args[1])
    counts["exchange.screen_kept"] += int(sum(bool(flag) for flag in keep))


def _wrap_points() -> List[Tuple[object, str, Optional[str], Optional[str], Optional[Tally]]]:
    """(owner, attribute, span, call-count metric, tally) per entry point."""
    import repro.simulation.community as community
    from repro.core.valuation import ValuationModel
    from repro.marketplace.strategy import TrustAwareStrategy
    from repro.simulation.churn import ChurnModel
    from repro.simulation.evidence import EvidencePlane
    from repro.simulation.peer import CommunityPeer
    from repro.simulation.repair import EvidenceJournal
    from repro.trust import sharding

    points: List[Tuple[object, str, Optional[str], Optional[str], Optional[Tally]]] = [
        (ChurnModel, "apply", "churn.apply", None, _churn_tally),
        (ValuationModel, "sample_bundle", "listings.sample", None, None),
        (
            CommunityPeer,
            "trust_in_many",
            "match.score",
            None,
            _add("match.score_rows", lambda a, r: len(a[1])),
        ),
        (CommunityPeer, "trust_in", "peer.trust_in", None, None),
        (CommunityPeer, "trust_in_with_witnesses", "peer.witness_trust", None, None),
        (
            community,
            "trust_weighted_matching",
            "match.select",
            None,
            _add("match.select_weights", lambda a, r: len(a[0]) * len(a[1])),
        ),
        (
            community,
            "run_exchange",
            "exchange.run",
            None,
            _add("exchange.run_scheduled", lambda a, r: int(r.scheduled)),
        ),
        (
            EvidencePlane,
            "submit_records",
            "evidence.records",
            None,
            _add("evidence.records_units", lambda a, r: len(a[2])),
        ),
        (EvidencePlane, "submit_complaint", "evidence.complaint", None, None),
        (EvidencePlane, "request_witness_reports", "evidence.witness", None, None),
        (EvidencePlane, "advance", "evidence.advance", None, None),
        (EvidenceJournal, "digest", None, "repair.digest_calls", None),
        (EvidenceJournal, "entries_missing_from", "repair.missing_scan", None, None),
        (EvidencePlane, "ingest_entry", None, "repair.ingest_calls", None),
        (TrustAwareStrategy, "screen_candidates", "exchange.screen", None, _screen_tally),
    ]
    for router in (
        sharding.HashShardRouter,
        sharding.RangeShardRouter,
        sharding.RingShardRouter,
    ):
        points.append((router, "shard_of", None, "sharding.shard_of_calls", None))
    return points


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer entry point for the duration of the block."""
    saved: List[Tuple[object, str, Any]] = []
    try:
        for owner, attribute, span, calls, tally in _wrap_points():
            original = vars(owner)[attribute]
            if calls is None and span is not None:
                calls = TIMED_LAYERS[span]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(original, span, calls, tally))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
