"""The gate, aimed at the real tree: self-check, injections, CLI, typing."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import default_rules, load_baseline, run_check
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "check_baseline.json"


def test_source_tree_is_clean_under_committed_baseline():
    """``repro check`` must pass on src/repro/ — the CI gate, as a test."""
    baseline = load_baseline(BASELINE)
    result = run_check(SRC_REPRO, default_rules(), baseline=baseline)
    assert result.findings == [], "\n".join(
        "{}:{}: {} {}".format(f.path, f.line, f.rule_id, f.message)
        for f in result.findings
    )
    assert result.stale_baseline == []
    # Every module of the package was scanned, not a subset.
    assert result.files_checked == len(list(SRC_REPRO.rglob("*.py")))


def test_committed_baseline_is_empty():
    """Debt stays at zero: new findings get fixed or justified, not filed."""
    assert load_baseline(BASELINE) == {}


def test_source_tree_hosts_no_process_transport():
    """Every store runs in-process: nothing pickles objects or forks workers,
    so no rule has to police what crosses a process boundary."""
    offenders = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in ("pickle", "multiprocessing"):
                    offenders.append(
                        "{}:{}: {}".format(
                            path.relative_to(SRC_REPRO), node.lineno, module
                        )
                    )
    assert offenders == []
    assert not (SRC_REPRO / "distributed").exists()


def test_injected_unseeded_random_is_caught(make_tree):
    """Planting random.random() in community.py trips DET001."""
    community = (SRC_REPRO / "simulation" / "community.py").read_text()
    sabotaged = community + (
        "\n\ndef _jitter():\n"
        "    import random\n"
        "    return random.random()\n"
    )
    root = make_tree({"simulation/community.py": sabotaged})
    result = run_check(root, default_rules())
    det = [f for f in result.findings if f.rule_id == "DET001"]
    assert len(det) == 1
    assert det[0].path == "simulation/community.py"
    assert "global unseeded" in det[0].message


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def test_cli_check_passes_on_source_tree(capsys):
    code = main(
        ["check", "--root", str(SRC_REPRO), "--baseline", str(BASELINE)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("OK: 0 finding(s)")


def test_cli_check_fails_on_seeded_violation(make_tree, capsys):
    root = make_tree(
        {
            "simulation/fixture.py": (
                "import random\n\ndef draw():\n    return random.random()\n"
            )
        }
    )
    code = main(["check", "--root", str(root)])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET001" in out
    assert "FAIL: 1 finding(s)" in out


def test_cli_check_json_format_and_output_artifact(make_tree, capsys, tmp_path):
    root = make_tree(
        {
            "simulation/fixture.py": (
                "import random\n\ndef draw():\n    return random.random()\n"
            )
        }
    )
    artifact = tmp_path / "check-report.json"
    code = main(
        [
            "check",
            "--root",
            str(root),
            "--format",
            "json",
            "--output",
            str(artifact),
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["clean"] is False
    assert payload == json.loads(artifact.read_text())


def test_cli_check_rule_filter(make_tree, capsys):
    root = make_tree(
        {
            "simulation/fixture.py": (
                "import random\n\ndef draw():\n    return random.random()\n"
            )
        }
    )
    code = main(["check", "--root", str(root), "--rule", "DTYPE001"])
    capsys.readouterr()
    assert code == 0  # the DET001 finding is outside the selected rule


def test_cli_check_write_baseline_round_trip(make_tree, capsys, tmp_path):
    root = make_tree(
        {
            "simulation/fixture.py": (
                "import random\n\ndef draw():\n    return random.random()\n"
            )
        }
    )
    baseline_path = tmp_path / "baseline.json"
    assert main(
        ["check", "--root", str(root), "--write-baseline", str(baseline_path)]
    ) == 0
    capsys.readouterr()
    code = main(
        ["check", "--root", str(root), "--baseline", str(baseline_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "1 baselined" in out


def test_cli_check_missing_baseline_is_a_usage_error(capsys):
    code = main(
        ["check", "--root", str(SRC_REPRO), "--baseline", "no-such-file.json"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot load baseline" in err


# ---------------------------------------------------------------------------
# Typing gate (runs when mypy is installed; CI installs it on 3.12)
# ---------------------------------------------------------------------------
def test_package_ships_py_typed():
    assert (SRC_REPRO / "py.typed").exists()


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_strict_typing_gate():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
