"""Small-size pins of the perfbench workloads' result fingerprints.

``make perf`` checks every repetition against ``perfbench/references.json``,
but only at full size and outside the tier-1 suite, so a change that moves
one result bit would otherwise show only there.  Here each workload runs at
size 8 for 2 rounds, seeds 0-2, built as ``perfbench/run.py`` builds it and
hashed by its own ``fingerprint`` (run, then drain the evidence plane).  The
digests were recorded before the community beta table replaced the per-peer
beta backends.  ``perfbench/repetition.py`` imports its sibling modules by
bare name, so the directory sits on ``sys.path`` while it loads; nothing
under ``perfbench/`` changes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.workloads.registry import build_registered_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PINS = {
    ("flash-sync", 0): "c08355f386a1eba6",
    ("flash-sync", 1): "7c8a43fa577cb7f3",
    ("flash-sync", 2): "3a233ac89a96c667",
    ("sybil-gossip", 0): "d1c94196fb3345b2",
    ("sybil-gossip", 1): "353af93f9a65f0ef",
    ("sybil-gossip", 2): "f8c03d3a20053e57",
    ("sybil-steady", 0): "d05b2dc7494715f8",
    ("sybil-steady", 1): "bf0ea880bee25607",
    ("sybil-steady", 2): "080185c7a1737626",
}


@pytest.fixture(scope="module")
def perfbench():
    """``(WORKLOADS, fingerprint)`` loaded by path from ``perfbench/``."""
    siblings = ("hostclock", "layers", "workloads")
    saved = {name: sys.modules.get(name) for name in siblings}
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_repetition", PERFBENCH / "repetition.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        yield module.WORKLOADS, module.fingerprint
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("perfbench_repetition", None)
        for name, previous in saved.items():
            if previous is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = previous


@pytest.mark.parametrize("workload, seed", sorted(PINS), ids=lambda value: str(value))
def test_small_workload_fingerprint_is_pinned(perfbench, workload, seed):
    workloads, fingerprint = perfbench
    spec = workloads[workload]
    params = spec.build_params(seed=seed, size=8)
    params["rounds"] = 2
    simulation = build_registered_scenario(spec.scenario, **params).simulation()
    result = simulation.run()
    simulation.evidence_plane.drain()
    assert fingerprint(result, len(simulation.peers)) == PINS[workload, seed]
