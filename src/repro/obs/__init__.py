"""Observability plane: unified metrics, span tracing, and evidence audit.

``repro.obs`` is a dependency-free leaf package — it imports nothing from
the rest of ``repro`` (stdlib only), so every layer of the pipeline
(trust backends, sharded store, evidence plane, simulation loop) can
instrument itself through :class:`~repro.obs.metrics.MetricsRegistry`
without creating import cycles.

Two modules:

``metrics``
    The telemetry substrate: namespaced counters / gauges / fixed-bucket
    histograms, a ``span(name, **tags)`` context manager for nested
    timing traces, and registry *views* that re-home existing ad-hoc
    counters (``NetworkCounters``, rebalance and scatter tallies) into
    one ``snapshot()``.  ``NULL_REGISTRY`` makes
    ``telemetry=off`` a true no-op.

``audit``
    The reconciliation pass behind ``repro audit``: an
    :class:`~repro.obs.audit.EvidenceAuditTrail` records every emitted /
    applied / expired evidence entry during a run, and
    :func:`~repro.obs.audit.reconcile` cross-checks the trail against
    backend state, the complaint store, and the per-peer journals,
    emitting a per-peer / per-shard divergence report in the
    ``BENCH_*.json`` metrics format.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    create_registry,
)
from repro.obs.audit import (
    AuditReport,
    EvidenceAuditTrail,
    collect_audit_inputs,
    inject_double_apply,
    inject_dropped_entry,
    reconcile,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "create_registry",
    "AuditReport",
    "EvidenceAuditTrail",
    "collect_audit_inputs",
    "inject_double_apply",
    "inject_dropped_entry",
    "reconcile",
]
