"""Dependency-free metrics registry: counters, gauges, histograms, spans.

Design constraints, in order of priority:

* **Zero cost when off.**  Instrumented call sites hold a registry
  reference (``NULL_REGISTRY`` by default) and either call its no-op
  methods or guard hot blocks with ``if registry.enabled``.  The null
  registry allocates nothing per call — ``span`` hands back one shared
  context-manager singleton.
* **Deterministic artifacts.**  ``snapshot()`` segregates its output
  into a ``metrics`` section (counters, gauges, histogram bucket
  shapes — functions of the seeded run alone, byte-identical across
  reruns) and a ``timings`` section (monotonic-clock aggregates, never
  compared) — the same convention the ``BENCH_*.json`` files use for
  their non-compared wall-clock fields.
* **One snapshot for the whole run.**  Existing ad-hoc counters are not
  migrated; they are *re-homed* as registry views (``add_view``) that
  are read at snapshot time, so the legacy attribute APIs keep working
  and a single ``registry.snapshot()`` reports the full pipeline.

Stdlib only — this module must stay importable from every layer of
``repro`` without creating cycles.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "create_registry",
]

#: Power-of-two volume buckets — a good default for batch sizes and
#: scatter/gather fan-out counts, which is what the pipeline observes.
DEFAULT_BUCKETS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Histogram:
    """A fixed-bucket histogram (cumulative shape is deterministic).

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.
    """

    __slots__ = ("buckets", "counts", "count", "total")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value

    def snapshot(self) -> Dict[str, Any]:
        total = self.total
        if isinstance(total, float) and total.is_integer():
            total = int(total)
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "total": total,
        }


class _Span:
    """One nested timing span; records into the registry's timing table."""

    __slots__ = ("_registry", "_name", "_tags", "_path", "_started")

    def __init__(self, registry: "MetricsRegistry", name: str, tags: Dict[str, Any]) -> None:
        self._registry = registry
        self._name = name
        self._tags = tags
        self._path = name
        self._started = 0.0

    def __enter__(self) -> "_Span":
        registry = self._registry
        stack = registry._span_stack
        if stack:
            self._path = stack[-1] + "/" + self._name
        stack.append(self._path)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        elapsed = time.perf_counter() - self._started
        registry = self._registry
        registry._span_stack.pop()
        registry.observe_seconds(self._path, elapsed)
        if registry._trace is not None:
            event: Dict[str, Any] = {"event": "span", "name": self._path, "seconds": elapsed}
            if self._tags:
                event["tags"] = self._tags
            registry._trace.append(event)
        return False


class _NullSpan:
    """Shared no-op context manager handed out by the null registry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRegistry:
    """The ``telemetry=off`` recorder: every operation is a no-op.

    Call sites may invoke methods unconditionally (each is a cheap
    attribute lookup plus an empty call) or skip whole instrumentation
    blocks behind ``if registry.enabled``.
    """

    enabled = False
    mode = "off"

    __slots__ = ()

    def count(self, name: str, amount: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def gauge_max(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        return None

    def observe_seconds(self, name: str, seconds: float) -> None:
        return None

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def add_view(self, prefix: str, provider: Callable[[], Dict[str, Any]]) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {"metrics": {}, "timings": {}}

    def write_jsonl(self, path: str) -> None:
        return None


#: The shared off-switch; ``is NULL_REGISTRY`` identifies "telemetry off".
NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """Namespaced counters, gauges, histograms, spans, and views.

    Names are dotted (``evidence.entries_emitted``,
    ``sharded.update_fanout``).  Span paths nest with ``/`` so a
    trace of ``exchange.round`` containing ``backend.update_many``
    aggregates under ``exchange.round/backend.update_many``.
    """

    enabled = True

    def __init__(self, mode: str = "summary", trace: bool = False) -> None:
        self.mode = mode
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timings: Dict[str, Dict[str, float]] = {}
        self._views: List[Tuple[str, Callable[[], Dict[str, Any]]]] = []
        self._span_stack: List[str] = []
        self._trace: Optional[List[Dict[str, Any]]] = [] if trace else None

    # -- recording ------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """High-water-mark gauge (e.g. peak in-flight RPC depth)."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def observe(self, name: str, value: float, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(buckets)
        histogram.observe(value)

    def observe_seconds(self, name: str, seconds: float) -> None:
        """Aggregate a wall-clock duration into the (non-compared) timings."""
        entry = self._timings.get(name)
        if entry is None:
            self._timings[name] = {"count": 1, "total_seconds": seconds}
        else:
            entry["count"] += 1
            entry["total_seconds"] += seconds

    def span(self, name: str, **tags: Any) -> _Span:
        return _Span(self, name, tags)

    # -- views ----------------------------------------------------------

    def add_view(self, prefix: str, provider: Callable[[], Dict[str, Any]]) -> None:
        """Re-home an existing counter object under ``prefix``.

        ``provider`` is called at snapshot time and returns a flat dict;
        keys containing ``seconds`` are routed into the ``timings``
        section (they come from monotonic clocks), everything else into
        ``metrics``.  The authoritative state stays wherever it lives
        today — views read, never copy.
        """
        self._views.append((prefix, provider))

    # -- output ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The full run in one dict: ``{"metrics": ..., "timings": ...}``.

        The ``metrics`` section is deterministic for a seeded run; the
        ``timings`` section holds monotonic aggregates and must never be
        compared across runs (same convention as ``BENCH_*.json``).
        """
        metrics: Dict[str, Any] = {}
        timings: Dict[str, Any] = {}
        metrics.update(self._counters)
        metrics.update(self._gauges)
        for name, histogram in self._histograms.items():
            metrics[name] = histogram.snapshot()
        for name, entry in self._timings.items():
            timings[name] = dict(entry)
        for prefix, provider in self._views:
            for key, value in provider().items():
                qualified = prefix + "." + key if prefix else key
                if "seconds" in key:
                    timings[qualified] = value
                else:
                    metrics[qualified] = value
        return {
            "metrics": {key: metrics[key] for key in sorted(metrics)},
            "timings": {key: timings[key] for key in sorted(timings)},
        }

    def summary_lines(self) -> List[str]:
        """A deterministic digest for the run summary: every metric, one a
        line, then a note naming the timed spans."""
        snap = self.snapshot()
        lines: List[str] = []
        for key, value in snap["metrics"].items():
            if isinstance(value, dict):  # histogram
                value = "n={} total={}".format(value["count"], value["total"])
            lines.append("  {:<44} {}".format(key, value))
        if snap["timings"]:
            lines.append("  ({} timed spans: {}; wall-clock detail in jsonl mode)".format(
                len(snap["timings"]), ", ".join(snap["timings"])))
        return lines

    def write_jsonl(self, path: str) -> None:
        """Persist the trace (if any) plus the final snapshot as JSONL.

        Span events carry monotonic durations, so the file as a whole is
        a diagnostic artifact; only its final ``snapshot`` line's
        ``metrics`` section is deterministic.
        """
        snap = self.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._trace or ():
                handle.write(json.dumps(event, sort_keys=True) + "\n")
            handle.write(json.dumps({"event": "snapshot", **snap}, sort_keys=True) + "\n")


def create_registry(spec: str) -> Tuple[Any, Optional[str]]:
    """Build a registry from a ``--telemetry`` spec.

    ``off`` → ``(NULL_REGISTRY, None)``; ``summary`` → live registry;
    ``jsonl:PATH`` → live registry with span tracing plus the path to
    write on completion.  Raises ``ValueError`` on anything else.
    """
    if spec == "off":
        return NULL_REGISTRY, None
    if spec == "summary":
        return MetricsRegistry(mode="summary"), None
    if spec.startswith("jsonl:"):
        path = spec[len("jsonl:"):]
        if not path:
            raise ValueError("jsonl telemetry mode needs a path: jsonl:PATH")
        return MetricsRegistry(mode="jsonl", trace=True), path
    raise ValueError("unknown telemetry mode: {!r} (expected off|summary|jsonl:PATH)".format(spec))
