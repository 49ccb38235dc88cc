"""Shared helpers for the benchmark / experiment harness.

Every benchmark module regenerates one table or figure of the designed
evaluation (see DESIGN.md and EXPERIMENTS.md).  Because ``pytest`` captures
stdout by default, each experiment's rendered output is also written to
``benchmarks/results/<experiment id>.txt`` so the regenerated tables survive
a plain ``pytest benchmarks/ --benchmark-only`` run.

Alongside the human-readable text, :func:`emit_json` persists a
machine-readable ``benchmarks/results/BENCH_<name>.json`` per experiment —
metrics, regression bars with their verdicts, and an overall pass flag.
The payload is deliberately timestamp-free so reruns on unchanged code
produce byte-identical files (diffable in CI artifacts).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Union

from repro.analysis.figures import Figure
from repro.analysis.tables import Table

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


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
) -> bool:
    """Persist ``benchmarks/results/BENCH_<name>.json`` and return pass/fail.

    ``metrics`` holds the experiment's measurements (typically
    :func:`table_metrics`); ``bars`` maps bar names to :func:`bar` entries.
    The overall ``passed`` flag is the conjunction of the *enforced* bars'
    verdicts (vacuously true without any); unenforced bars are recorded
    with their real ``ok`` but never fail the run.  No timestamps or host details are
    recorded, so the file is stable across reruns of unchanged code.
    """
    bars = bars or {}
    passed = all(
        bool(entry.get("ok", True))
        for entry in bars.values()
        if entry.get("enforced", True)
    )
    payload = {
        "name": name,
        "metrics": _jsonable(metrics),
        "bars": _jsonable(bars),
        "passed": passed,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return passed
