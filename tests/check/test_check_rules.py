"""Per-rule fixtures: one flagging and one clean tree for every contract."""

import pytest

from repro.check import default_rules, run_check
from repro.check.rules.determinism import DeterminismRule
from repro.check.rules.dtype import CanonicalDtypeRule
from repro.check.rules.exceptions import ExceptionHygieneRule
from repro.check.rules.perf import NPlusOneRule
from repro.check.rules.telemetry import TelemetryRule


def rule_ids(result):
    return sorted({finding.rule_id for finding in result.findings})


# ---------------------------------------------------------------------------
# DET001 — determinism
# ---------------------------------------------------------------------------
def test_det001_flags_every_entropy_family(make_tree):
    root = make_tree(
        {
            "simulation/fixture.py": """\
            import os
            import random
            import secrets
            import time
            import uuid
            from datetime import datetime
            import numpy as np

            def bad():
                a = time.time()
                b = time.perf_counter()
                c = os.urandom(8)
                d = secrets.token_hex(4)
                e = uuid.uuid4()
                f = datetime.now()
                g = random.random()
                h = random.Random()
                i = random.SystemRandom()
                j = np.random.rand(3)
                k = np.random.default_rng()
                return a, b, c, d, e, f, g, h, i, j, k
            """
        }
    )
    result = run_check(root, [DeterminismRule()])
    assert len(result.findings) == 11
    assert rule_ids(result) == ["DET001"]


def test_det001_clean_fixture(make_tree):
    root = make_tree(
        {
            "simulation/fixture.py": """\
            import random
            import numpy as np

            def good(rng, seed):
                a = random.Random(42)
                b = random.Random(seed)
                c = np.random.default_rng(seed)
                d = rng.random()  # a passed-in seeded generator is fine
                return a, b, c, d
            """
        }
    )
    assert run_check(root, [DeterminismRule()]).clean


def test_det001_resolves_import_aliases(make_tree):
    root = make_tree(
        {
            "simulation/fixture.py": """\
            import time as clock
            from random import choice

            def bad(options):
                stamp = clock.time()
                return stamp, choice(options)
            """
        }
    )
    result = run_check(root, [DeterminismRule()])
    assert len(result.findings) == 2


def test_det001_exempts_repro_obs(make_tree):
    root = make_tree(
        {
            "obs/fixture.py": """\
            import time

            def stamp():
                return time.perf_counter()
            """
        }
    )
    assert run_check(root, [DeterminismRule()]).clean


# ---------------------------------------------------------------------------
# TEL001 — telemetry discipline
# ---------------------------------------------------------------------------
def test_tel001_flags_per_call_metric_names(make_tree):
    root = make_tree(
        {
            "trust/fixture.py": """\
            class Backend:
                def __init__(self, name, telemetry):
                    self.name = name
                    self.telemetry = telemetry

                def update(self, rows):
                    self.telemetry.count(f"backend.{self.name}.updates", rows)
                    self.telemetry.observe("backend.%s.rows" % self.name, rows)
                    self.telemetry.gauge("backend." + self.name + ".size", rows)
                    self.telemetry.span("backend.{}.flush".format(self.name))
            """
        }
    )
    result = run_check(root, [TelemetryRule()])
    assert len(result.findings) == 4
    assert all("per call" in f.message for f in result.findings)


def test_tel001_flags_direct_registry_construction(make_tree):
    root = make_tree(
        {
            "trust/fixture.py": """\
            from repro.obs.metrics import MetricsRegistry

            def make_backend():
                return MetricsRegistry(enabled=True)
            """
        }
    )
    result = run_check(root, [TelemetryRule()])
    assert len(result.findings) == 1
    assert "run boundary" in result.findings[0].message


def test_tel001_clean_fixture(make_tree):
    root = make_tree(
        {
            "trust/fixture.py": """\
            class Backend:
                def __init__(self, name, telemetry):
                    self._updates_metric = "backend." + name + ".updates"
                    self.telemetry = telemetry

                def update(self, rows):
                    self.telemetry.count(self._updates_metric, rows)

            def tally(items, needle):
                return items.count(needle)  # list.count is not telemetry
            """
        }
    )
    assert run_check(root, [TelemetryRule()]).clean


def test_tel001_does_not_apply_inside_repro_obs(make_tree):
    root = make_tree(
        {
            "obs/fixture.py": """\
            class MetricsRegistry:
                pass

            def create_registry():
                return MetricsRegistry()
            """
        }
    )
    assert run_check(root, [TelemetryRule()]).clean


# ---------------------------------------------------------------------------
# PERF001 — N+1 lint
# ---------------------------------------------------------------------------
def test_perf001_flags_scalar_calls_in_loops(make_tree):
    root = make_tree(
        {
            "reputation/fixture.py": """\
            def n_plus_one(backend, agent_ids):
                scores = []
                for agent_id in agent_ids:
                    scores.append(backend.belief(agent_id))
                assessments = [backend.assess(a) for a in agent_ids]
                return scores, assessments
            """
        }
    )
    result = run_check(root, [NPlusOneRule()])
    assert len(result.findings) == 2
    assert "scores_for" in result.findings[0].message
    assert "assess_many" in result.findings[1].message


def test_perf001_flags_scalar_planning_and_decisions_in_loops(make_tree):
    root = make_tree(
        {
            "core/fixture.py": """\
            from repro.core import planner
            from repro.core.planner import plan_exchange

            def per_candidate(maker, candidates):
                plans = [plan_exchange(b, p, r) for b, p, r in candidates]
                for bundle, price, requirements in candidates:
                    planner.plan_exchange(bundle, price, requirements)
                    maker.decide(0.5, 1.0, 0.0)
                return plans, maker.decide_many([0.5], [1.0], [0.0])
            """
        }
    )
    result = run_check(root, [NPlusOneRule()])
    assert [finding.line for finding in result.findings] == [5, 7, 8]
    assert "plan_exchange_batch" in result.findings[0].message
    assert "plan_exchange_batch" in result.findings[1].message
    assert "decide_many" in result.findings[2].message


def test_perf001_flags_scalar_trust_reads_in_loops(make_tree):
    root = make_tree(
        {
            "simulation/fixture.py": """\
            from repro.simulation.peer import trust_in_pairs

            def per_match(matches, now):
                trusts = [consumer.trust_in(supplier.peer_id) for consumer, supplier in matches]
                for consumer, supplier in matches:
                    supplier.trust_in_with_witnesses(consumer.peer_id)
                batched = trust_in_pairs(
                    [consumer for consumer, _ in matches],
                    [supplier.peer_id for _, supplier in matches],
                    [consumer.gid_of(supplier.peer_id, supplier) for consumer, supplier in matches],
                    now,
                )
                return trusts, batched, matches[0][0].trust_in("x")
            """
        }
    )
    result = run_check(root, [NPlusOneRule()])
    # Only the scalar read in the comprehension: the witness-aware read and
    # the batched read are not trust_in, and the last call is in no loop.
    assert [finding.line for finding in result.findings] == [4]
    assert "trust_in_pairs" in result.findings[0].message


@pytest.mark.parametrize(
    "call, batched",
    [
        ("execute_sequence(sequence, supplier, consumer, rng)", "execute_many"),
        ("protocol.run_exchange(s, c, sequence, supplier, consumer, rng)", "run_exchanges"),
        ("supplier.will_defect(1.0, 0.0, rng)", "execute_many"),
    ],
    ids=["execute_sequence", "run_exchange", "will_defect"],
)
def test_perf001_flags_scalar_execution_in_loops(make_tree, call, batched):
    root = make_tree(
        {
            "marketplace/fixture.py": f"""\
            def per_exchange(rows, rng):
                for sequence, supplier, consumer, s, c in rows:
                    {call}
                return {call}
            """
        }
    )
    result = run_check(root, [NPlusOneRule()])
    # The call in the loop is flagged; the one after it is in no loop.
    assert [finding.line for finding in result.findings] == [3]
    assert batched in result.findings[0].message


def test_perf001_clean_fixture(make_tree):
    root = make_tree(
        {
            "reputation/fixture.py": """\
            def batched(backend, agent_ids):
                scores = backend.scores_for(agent_ids)
                single = backend.belief(agent_ids[0])  # not in a loop
                return scores, single
            """
        }
    )
    assert run_check(root, [NPlusOneRule()]).clean


def test_perf001_loop_iter_is_not_loop_hot(make_tree):
    root = make_tree(
        {
            "reputation/fixture.py": """\
            def over(backend, agent_ids):
                for score in backend.scores_for(agent_ids):
                    yield score
            """
        }
    )
    assert run_check(root, [NPlusOneRule()]).clean


# ---------------------------------------------------------------------------
# EXC001 — exception hygiene
# ---------------------------------------------------------------------------
def test_exc001_flags_silent_broad_except(make_tree):
    root = make_tree(
        {
            "trust/sharding_fixture.py": "",
            "trust/sharding.py": """\
            def split(shard):
                try:
                    shard.snapshot()
                except Exception:
                    pass
            """,
        }
    )
    result = run_check(root, [ExceptionHygieneRule()])
    assert len(result.findings) == 1
    assert result.findings[0].path == "trust/sharding.py"


def test_exc001_reraise_and_forward_discharge(make_tree):
    root = make_tree(
        {
            "trust/sharding.py": """\
            def reraises(shard):
                try:
                    shard.snapshot()
                except Exception:
                    shard.rollback()
                    raise

            def forwards(shard, errors):
                try:
                    shard.snapshot()
                except Exception as exc:
                    errors.append(exc)
            """
        }
    )
    assert run_check(root, [ExceptionHygieneRule()]).clean


def test_exc001_narrow_handlers_are_out_of_scope(make_tree):
    root = make_tree(
        {
            "trust/sharding.py": """\
            def lookup(table, key):
                try:
                    return table[key]
                except (KeyError, IndexError):
                    pass
            """
        }
    )
    assert run_check(root, [ExceptionHygieneRule()]).clean


def test_exc001_governs_the_whole_package(make_tree):
    root = make_tree(
        {
            "simulation/fixture.py": """\
            def tolerant(thing):
                try:
                    thing()
                except Exception:
                    pass
            """,
            "analysis/optional.py": """\
            try:
                import scipy
            except BaseException:
                scipy = None
            """,
        }
    )
    result = run_check(root, [ExceptionHygieneRule()])
    assert [finding.path for finding in result.findings] == [
        "analysis/optional.py",
        "simulation/fixture.py",
    ]


def test_exc001_narrow_optional_import_is_out_of_scope(make_tree):
    root = make_tree(
        {
            "analysis/optional.py": """\
            try:
                import scipy
            except ImportError:
                scipy = None
            """
        }
    )
    assert run_check(root, [ExceptionHygieneRule()]).clean


# ---------------------------------------------------------------------------
# DTYPE001 — canonical dtypes
# ---------------------------------------------------------------------------
def test_dtype001_flags_narrow_dtypes(make_tree):
    root = make_tree(
        {
            "trust/fixture.py": """\
            import numpy as np

            def snapshot(rows):
                alpha = np.zeros(rows, dtype=np.float32)
                counts = np.zeros(rows, dtype="int32")
                return alpha, counts
            """
        }
    )
    result = run_check(root, [CanonicalDtypeRule()])
    assert len(result.findings) == 2


def test_dtype001_clean_fixture_and_no_storage_exemption(make_tree):
    """Canonical dtypes pass; the storage module gets no narrow-dtype pass."""
    root = make_tree(
        {
            "trust/fixture.py": """\
            import numpy as np

            def snapshot(rows):
                return np.zeros(rows, dtype=np.float64)
            """,
            "trust/storage.py": """\
            import numpy as np

            def narrow_column(rows):
                return np.zeros(rows, dtype=np.float32)
            """,
        }
    )
    result = run_check(root, [CanonicalDtypeRule()])
    assert rule_ids(result) == ["DTYPE001"]
    assert [finding.path for finding in result.findings] == ["trust/storage.py"]


def test_dtype001_ignores_non_numpy_attributes(make_tree):
    root = make_tree(
        {
            "trust/fixture.py": """\
            def convert(torchlike, rows):
                return torchlike.float32(rows)  # not a numpy alias
            """
        }
    )
    assert run_check(root, [CanonicalDtypeRule()]).clean


# ---------------------------------------------------------------------------
# The full default rule set over a mixed tree
# ---------------------------------------------------------------------------
def test_default_rules_compose_over_one_tree(make_tree):
    root = make_tree(
        {
            "simulation/fixture.py": """\
            import random

            def draw():
                return random.random()
            """,
            "trust/sharding.py": """\
            def split(shard):
                try:
                    shard.snapshot()
                except Exception:
                    pass
            """,
        }
    )
    result = run_check(root, default_rules())
    assert rule_ids(result) == ["DET001", "EXC001"]
