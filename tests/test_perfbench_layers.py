"""The perfbench harness can still build its workloads and wrap every layer.

``perfbench/layers.py`` replaces each entry point named by ``_wrap_points()``
with a tracing wrapper, looking it up as ``vars(owner)[attribute]``, and
``perfbench/workloads.py`` passes each workload's params to
``build_registered_scenario``.  The tier-1 suite never runs perfbench, so a
deletion, a move or a dropped scenario parameter that breaks either would
otherwise only show when ``make perf`` fails.  Both modules are loaded by
path; nothing under ``perfbench/`` changes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # A dataclass resolves its module through ``sys.modules`` while the
    # class body runs.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


LAYERS = _load("layers")
WRAP_POINTS = LAYERS._wrap_points()
WORKLOADS = _load("workloads").WORKLOADS


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
    # A round executes its exchanges in one batch, so the per-exchange
    # ``exchange.run`` point no longer fires; these two fire every round.
    assert {"match.select", "churn.apply"} <= names
    assert names <= set(LAYERS.TIMED_LAYERS)
    assert tracer.counts["match.select_calls"] == 2
    assert [vars(owner)[attribute] for owner, attribute, *_ in WRAP_POINTS] == originals


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_params_build_and_run(name):
    """Every param a workload passes is still a scenario parameter."""
    from repro.workloads.registry import build_registered_scenario

    workload = WORKLOADS[name]
    params = workload.build_params(seed=0, size=8)
    params["rounds"] = 2
    scenario = build_registered_scenario(workload.scenario, **params)
    simulation = scenario.simulation()
    result = simulation.run()
    simulation.evidence_plane.drain()
    assert result.accounts.attempted > 0
