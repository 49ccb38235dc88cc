"""Engine mechanics: suppressions, baselines, module naming, reports."""

import json

import pytest

from repro.check import (
    apply_baseline,
    default_rules,
    fingerprint,
    load_baseline,
    render_json,
    render_text,
    rule_summaries,
    run_check,
    scan_tree,
    write_baseline,
)
from repro.check.engine import META_RULE_ID, module_name

VIOLATION = """\
    import random

    def draw():
        return random.random()
    """

SUPPRESSED = """\
    import random

    def draw():
        return random.random()  # repro: allow(DET001) — fixture exercises the marker
    """

UNJUSTIFIED = """\
    import random

    def draw():
        return random.random()  # repro: allow(DET001)
    """


def test_flagging_fixture_fails(make_tree):
    root = make_tree({"simulation/fixture.py": VIOLATION})
    result = run_check(root, default_rules())
    assert not result.clean
    assert [f.rule_id for f in result.findings] == ["DET001"]
    finding = result.findings[0]
    assert finding.path == "simulation/fixture.py"
    assert finding.line == 4


def test_justified_allow_suppresses(make_tree):
    root = make_tree({"simulation/fixture.py": SUPPRESSED})
    result = run_check(root, default_rules())
    assert result.clean
    assert result.suppressed == 1


def test_unjustified_allow_suppresses_nothing_and_is_reported(make_tree):
    root = make_tree({"simulation/fixture.py": UNJUSTIFIED})
    result = run_check(root, default_rules())
    rule_ids = sorted(f.rule_id for f in result.findings)
    assert rule_ids == [META_RULE_ID, "DET001"]
    assert result.suppressed == 0
    meta = next(f for f in result.findings if f.rule_id == META_RULE_ID)
    assert "justification" in meta.message


def test_standalone_comment_covers_next_code_line(make_tree):
    root = make_tree(
        {
            "simulation/fixture.py": """\
            import random

            def draw():
                # repro: allow(DET001) — standalone marker covers the next line
                return random.random()
            """
        }
    )
    result = run_check(root, default_rules())
    assert result.clean
    assert result.suppressed == 1


def test_marker_with_multiple_rule_ids(make_tree):
    root = make_tree(
        {
            "simulation/fixture.py": """\
            import random
            import numpy as np

            def draw(backend, ids):
                x = np.zeros(3, dtype=np.float32)  # repro: allow(DTYPE001, DET001) — fixture
                return random.random()
            """
        }
    )
    result = run_check(root, default_rules(), rule_filter=["DTYPE001"])
    assert result.clean


def test_rule_filter_limits_to_selected_rule(make_tree):
    root = make_tree({"simulation/fixture.py": UNJUSTIFIED})
    result = run_check(root, default_rules(), rule_filter=["DTYPE001"])
    assert result.clean  # neither DET001 nor the meta finding is selected
    meta_only = run_check(root, default_rules(), rule_filter=[META_RULE_ID])
    assert [f.rule_id for f in meta_only.findings] == [META_RULE_ID]


def test_module_name_includes_package_root(make_tree):
    root = make_tree({"trust/sharding.py": "X = 1\n"})
    sources = scan_tree(root)
    names = {source.module for source in sources}
    assert "repro.trust.sharding" in names
    assert "repro.trust" in names  # the __init__.py
    assert "repro" in names
    sharding = next(s for s in sources if s.module == "repro.trust.sharding")
    assert module_name(sharding.path, root) == "repro.trust.sharding"


def test_baseline_round_trip(make_tree, tmp_path):
    root = make_tree({"simulation/fixture.py": VIOLATION})
    first = run_check(root, default_rules())
    assert len(first.findings) == 1

    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, first.findings)
    baseline = load_baseline(baseline_path)
    assert baseline == {fingerprint(first.findings[0]): 1}

    second = run_check(root, default_rules(), baseline=baseline)
    assert second.clean
    assert second.baselined == 1
    assert second.stale_baseline == []


def test_baseline_reports_stale_entries(make_tree, tmp_path):
    root = make_tree({"simulation/fixture.py": "X = 1\n"})
    stale_key = "DET001:simulation/fixture.py:already fixed"
    result = run_check(root, default_rules(), baseline={stale_key: 2})
    assert result.clean
    assert result.baselined == 0
    assert result.stale_baseline == [stale_key]


def test_apply_baseline_respects_counts(make_tree):
    root = make_tree(
        {
            "simulation/fixture.py": """\
            import random

            def a():
                return random.random()

            def b():
                return random.random()
            """
        }
    )
    result = run_check(root, default_rules())
    assert len(result.findings) == 2
    key = fingerprint(result.findings[0])
    kept, baselined, stale = apply_baseline(result.findings, {key: 1})
    assert baselined == 1
    assert len(kept) == 1  # the second occurrence exceeds the budget
    assert stale == []


def test_load_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": {}}))
    with pytest.raises(ValueError):
        load_baseline(path)


def test_render_text_shapes(make_tree):
    root = make_tree({"simulation/fixture.py": VIOLATION})
    result = run_check(root, default_rules())
    text = render_text(result, rule_summaries())
    assert "simulation/fixture.py:4:" in text
    assert "DET001" in text
    assert text.strip().endswith("(0 suppressed, 0 baselined)")
    assert text.startswith("simulation/fixture.py")


def test_render_text_clean(make_tree):
    clean = run_check(make_tree({"ok.py": "X = 1\n"}), default_rules())
    assert render_text(clean, rule_summaries()).startswith("OK: 0 finding(s)")


def test_render_json_is_deterministic_and_parseable(make_tree):
    root = make_tree({"simulation/fixture.py": VIOLATION})
    result = run_check(root, default_rules())
    payload = json.loads(render_json(result, rule_summaries()))
    assert payload["tool"] == "repro-check"
    assert payload["clean"] is False
    assert payload["summary"]["findings"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "DET001"
    assert finding["fingerprint"].startswith("DET001:simulation/fixture.py:")
    again = render_json(run_check(root, default_rules()), rule_summaries())
    assert again == render_json(result, rule_summaries())


def test_findings_are_deterministically_ordered(make_tree):
    root = make_tree(
        {
            "simulation/b.py": VIOLATION,
            "simulation/a.py": VIOLATION,
        }
    )
    result = run_check(root, default_rules())
    assert [f.path for f in result.findings] == [
        "simulation/a.py",
        "simulation/b.py",
    ]
