"""``benchmarks/_harness.py::emit_json`` is each benchmark's one verdict.

It writes ``BENCH_<name>.json`` and then fails the run on any enforced bar
that reads ``ok: false``; the benchmarks themselves assert nothing after
it.  The tier-1 suite never runs the benchmarks, so these tests pin the
harness's verdict, the committed results and the no-duplicate-assert rule
directly.  The harness is loaded by path with its results directory
pointed at a temporary one.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "bench_harness", BENCHMARKS / "_harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def harness(tmp_path, monkeypatch):
    module = _load_harness()
    monkeypatch.setattr(module, "RESULTS_DIR", str(tmp_path))
    return module


def test_smoke_runs_leave_committed_results_alone(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    assert Path(_load_harness().RESULTS_DIR) == BENCHMARKS / "results"
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    assert Path(_load_harness().RESULTS_DIR) == BENCHMARKS / "results" / "smoke"


def _written(tmp_path, name):
    return json.loads((tmp_path / f"BENCH_{name}.json").read_text())


def test_enforced_false_bars_raise_naming_bar_value_and_limit(harness, tmp_path):
    bars = {
        "fast_enough": harness.bar(3.16, 3.0, False),
        "small_enough": harness.bar(512.5, 500.0, False),
        "correct": harness.bar(True, True, True),
    }
    with pytest.raises(AssertionError) as raised:
        harness.emit_json("demo", {"x": 1}, bars)
    message = str(raised.value)
    assert "fast_enough (value 3.16, limit 3.0)" in message
    assert "small_enough (value 512.5, limit 500.0)" in message
    assert "correct" not in message
    written = _written(tmp_path, "demo")
    assert written["passed"] is False
    assert written["metrics"] == {"x": 1}
    assert written["bars"]["fast_enough"]["ok"] is False


def test_unenforced_false_bar_is_recorded_without_failing(harness, tmp_path):
    bars = {"speedup": harness.bar(1.2, 2.0, False, enforced=False)}
    assert harness.emit_json("demo", {}, bars) is None
    written = _written(tmp_path, "demo")
    assert written["passed"] is True
    assert written["bars"]["speedup"] == {
        "value": 1.2, "limit": 2.0, "ok": False, "enforced": False,
    }


def test_no_bars_pass_vacuously(harness, tmp_path):
    harness.emit_json("demo", {"x": 1})
    assert _written(tmp_path, "demo")["passed"] is True


COMMITTED = _load_harness().COMMITTED_RESULTS


@pytest.mark.parametrize(
    "path",
    [
        BENCHMARKS / "results" / name
        for name in COMMITTED
        if name.startswith("BENCH_") and name.endswith(".json")
    ],
    ids=lambda path: path.name,
)
def test_committed_results_pass_and_mark_enforcement(path):
    result = json.loads(path.read_text())
    assert result["passed"] is True
    assert result["bars"]
    for name, entry in result["bars"].items():
        assert isinstance(entry.get("enforced"), bool), name


def test_committed_results_exist_and_are_the_only_ones_unignored():
    assert all((BENCHMARKS / "results" / name).is_file() for name in COMMITTED)
    lines = (BENCHMARKS.parent / ".gitignore").read_text().splitlines()
    assert "benchmarks/results/*" in lines
    unignored = [line for line in lines if line.startswith("!")]
    assert unignored == [f"!benchmarks/results/{name}" for name in COMMITTED]


def _bench_tests():
    for path in sorted(BENCHMARKS.glob("bench_*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                yield path, node


def _calls(node, name):
    return any(
        isinstance(child, ast.Call)
        and isinstance(child.func, ast.Name)
        and child.func.id == name
        for child in ast.walk(node)
    )


def test_bench_tests_state_each_claim_once():
    """A bench test that records bars leaves their verdict to ``emit_json``."""
    verdicts = [
        (path, node) for path, node in _bench_tests() if _calls(node, "emit_json")
    ]
    assert len(verdicts) >= 18
    offenders = [
        f"{path.name}:{child.lineno} in {node.name}"
        for path, node in verdicts
        for child in ast.walk(node)
        if isinstance(child, ast.Assert)
    ]
    assert offenders == []
