"""The traced perfbench run can still wrap every layer entry point.

``perfbench/layers.py`` replaces each entry point named by ``_wrap_points()``
with a tracing wrapper, looking it up as ``vars(owner)[attribute]``.  The
tier-1 suite never runs the traced mode, so a deletion or a move that breaks
one of those lookups would otherwise only show when ``make perf-layers``
fails.  The module is loaded by path; nothing under ``perfbench/`` changes.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()
WRAP_POINTS = LAYERS._wrap_points()


def _point_id(point):
    owner, attribute = point[0], point[1]
    return f"{getattr(owner, '__name__', owner)}.{attribute}"


@pytest.mark.parametrize("point", WRAP_POINTS, ids=[_point_id(p) for p in WRAP_POINTS])
def test_wrap_point_resolves(point):
    owner, attribute, span, calls, _tally = point
    # The tracer reads the original from the owner's own namespace, so an
    # inherited or renamed attribute breaks the traced run.
    assert attribute in vars(owner)
    assert callable(vars(owner)[attribute])
    if span is not None:
        assert span in LAYERS.TIMED_LAYERS
    else:
        assert calls is not None, "a point without a span must count calls"


def test_traced_run_records_known_spans_and_restores_every_point():
    from repro.workloads.registry import build_registered_scenario

    originals = [vars(owner)[attribute] for owner, attribute, *_ in WRAP_POINTS]
    scenario = build_registered_scenario("flash-crowd", size=12, rounds=2, seed=0)
    with LAYERS.installed(LAYERS.Tracer()) as tracer:
        scenario.simulation().run()
    names = {name for name, _start, _end, _parent in tracer.spans}
    assert {"exchange.run", "match.score"} <= names
    assert names <= set(LAYERS.TIMED_LAYERS)
    assert tracer.counts["exchange.run_calls"] > 0
    assert [vars(owner)[attribute] for owner, attribute, *_ in WRAP_POINTS] == originals
