"""Shared helpers for the benchmark / experiment harness.

Every benchmark module regenerates one table or figure of the evaluation
(each module's docstring states the claim it checks).  Because ``pytest``
captures stdout by default, each experiment's rendered output is also
written to ``benchmarks/results/<experiment id>.txt`` so the regenerated
tables survive a plain ``pytest benchmarks/ --benchmark-only`` run.

Alongside the human-readable text, :func:`emit_json` persists a
machine-readable ``benchmarks/results/BENCH_<name>.json`` per experiment —
metrics, regression bars with their verdicts, and an overall pass flag —
and is the experiment's one verdict: it fails the test on any enforced bar
that reads ``ok: false``.  The payload is timestamp-free so reruns on
unchanged code produce byte-identical files.  Under ``REPRO_BENCH_SMOKE``
every output goes to ``benchmarks/results/smoke/`` instead, so a smoke
pass never overwrites the committed full-scale results.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Union

from repro.analysis.figures import Figure
from repro.analysis.tables import Table

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: The results under ``benchmarks/results/`` that are committed: the
#: repository's ``.gitignore`` ignores that directory except for exactly
#: these files, and every ``BENCH_*.json`` among them must read ``passed``.
COMMITTED_RESULTS = (
    "BENCH_ablation_payment_policy.json",
    "BENCH_evidence_repair.json",
    "BENCH_million_peer.json",
    "BENCH_shard_rebalance.json",
    "BENCH_sharded_backend_overhead.json",
    "BENCH_table2_strategy_comparison.json",
    "BENCH_telemetry_overhead.json",
    "backend_batch_throughput.txt",
    "evidence_repair.txt",
    "million_peer.txt",
    "shard_rebalance.txt",
    "sharded_backend_overhead.txt",
    "telemetry_overhead.txt",
    "witness_aggregation_throughput.txt",
)
if SMOKE:
    RESULTS_DIR = os.path.join(RESULTS_DIR, "smoke")


def emit(experiment_id: str, rendered: Union[str, Table, Figure]) -> str:
    """Print and persist the rendered output of one experiment."""
    if isinstance(rendered, Table):
        text = rendered.render()
    elif isinstance(rendered, Figure):
        text = rendered.render()
    else:
        text = str(rendered)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment_id}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"\n===== {experiment_id} =====")
    print(text)
    return text


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing and return its result."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays and other oddballs into JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "tolist"):  # numpy scalar or array
        return _jsonable(value.tolist())
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def table_metrics(table: Table) -> Dict[str, Any]:
    """A :class:`Table`'s data as a JSON-friendly ``{columns, rows}`` dict."""
    return {
        "columns": list(table.columns),
        "rows": [[_jsonable(cell) for cell in row] for row in table.rows],
    }


def figure_metrics(figure: Figure) -> Dict[str, Any]:
    """A :class:`Figure`'s series as a JSON-friendly dict keyed by label."""
    return {
        "x_label": figure.x_label,
        "y_label": figure.y_label,
        "series": {
            series.label: {"xs": list(series.xs), "ys": list(series.ys)}
            for series in figure.series
        },
    }


def bar(value: Any, limit: Any, ok: bool, enforced: bool = True) -> Dict[str, Any]:
    """One regression bar: the measured value, its bound, and the verdict.

    ``ok`` is always the real verdict of ``value`` against ``limit``;
    ``enforced=False`` records a bar that does not gate the run (e.g. a
    parallel-speedup bar on a machine without the cores to meet it).
    """
    return {
        "value": _jsonable(value),
        "limit": _jsonable(limit),
        "ok": bool(ok),
        "enforced": bool(enforced),
    }


def emit_json(
    name: str,
    metrics: Dict[str, Any],
    bars: Optional[Dict[str, Dict[str, Any]]] = None,
) -> None:
    """Persist ``BENCH_<name>.json``; raise if an enforced bar missed.

    ``metrics`` holds the experiment's measurements (typically
    :func:`table_metrics`); ``bars`` maps bar names to :func:`bar` entries.
    ``passed`` records whether every *enforced* bar reads ``ok`` (vacuously
    true without any).  The file is written first; then an
    :class:`AssertionError` names each enforced bar that missed, with its
    value and limit.  Unenforced bars never fail the run.  No timestamps or
    host details are recorded, so the file is stable across reruns of
    unchanged code.
    """
    bars = _jsonable(bars or {})
    failed = [
        f"{bar_name} (value {entry['value']!r}, limit {entry['limit']!r})"
        for bar_name, entry in sorted(bars.items())
        if entry["enforced"] and not entry["ok"]
    ]
    payload = {
        "name": name,
        "metrics": _jsonable(metrics),
        "bars": bars,
        "passed": not failed,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if failed:
        raise AssertionError(
            f"BENCH_{name}: enforced bars failed: " + "; ".join(failed)
        )
