"""End-to-end audit runs: clean pipelines reconcile, injected faults don't."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.obs import (
    EvidenceAuditTrail,
    collect_audit_inputs,
    inject_double_apply,
    inject_dropped_entry,
    reconcile,
)
from repro.workloads.registry import build_registered_scenario, scenario_names


def run_audited(name, **params):
    """Run a registered scenario with an attached trail, drained and settled."""
    scenario = build_registered_scenario(name, **params)
    simulation = scenario.simulation()
    trail = EvidenceAuditTrail()
    simulation.evidence_plane.attach_audit(trail)
    simulation.run()
    simulation.evidence_plane.drain(max_ticks=200)
    return scenario, simulation, trail


def audit(scenario, simulation, trail):
    return reconcile(
        trail,
        require_settled=True,
        **collect_audit_inputs(simulation, store=scenario.complaint_store),
    )


class TestCleanRunsReconcile:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_registry_scenario_sync(self, name):
        report = audit(*run_audited(name, size=10, rounds=3, seed=1))
        assert report.passed, report.render()

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_registry_scenario_async_gossip(self, name):
        report = audit(
            *run_audited(
                name,
                size=10,
                rounds=3,
                seed=2,
                evidence_mode="async",
                evidence_loss=0.05,
                evidence_repair="gossip",
            )
        )
        assert report.passed, report.render()

    def test_sharded_store_reconciles(self):
        report = audit(
            *run_audited(
                "sybil-coalition", size=12, rounds=4, seed=3, shards=3
            )
        )
        assert report.passed, report.render()

    def test_rebalanced_sharded_store_reconciles(self):
        report = audit(
            *run_audited("flash-crowd", size=12, rounds=3, seed=4, shards=2)
        )
        assert report.passed, report.render()


class TestInjectedFaultsAreDetected:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        fault=st.sampled_from(["double-apply", "drop"]),
    )
    def test_mutated_store_diverges_clean_store_passes(self, seed, fault):
        scenario, simulation, trail = run_audited(
            "ebay", size=8, rounds=4, dishonest_fraction=0.4, seed=seed
        )
        store = scenario.complaint_store
        # The unmutated run must reconcile first — otherwise detecting the
        # injection would prove nothing.
        assert audit(scenario, simulation, trail).passed
        try:
            if fault == "double-apply":
                injected = inject_double_apply(store)
            else:
                injected = inject_dropped_entry(store)
        except ValueError:
            assume(False)  # this seed filed no complaints to mutate
        report = audit(scenario, simulation, trail)
        assert not report.passed
        assert not report.checks["complaint_store"]["ok"]
        flagged = {
            divergence["peer"]
            for divergence in report.divergences
            if divergence["check"] == "complaint_store"
        }
        assert injected[1] in flagged  # blamed on the accused peer

    def test_double_apply_detected_on_sharded_store(self):
        scenario, simulation, trail = run_audited(
            "sybil-coalition", size=12, rounds=4, seed=5, shards=3
        )
        injected = inject_double_apply(scenario.complaint_store)
        report = audit(scenario, simulation, trail)
        assert not report.checks["complaint_store"]["ok"]
        divergence = [
            d for d in report.divergences if d["check"] == "complaint_store"
        ][0]
        assert divergence["peer"] == injected[1]
        assert "shard" in divergence

    def test_drop_detected_on_sharded_store(self):
        scenario, simulation, trail = run_audited(
            "flash-crowd", size=12, rounds=3, seed=6, shards=2
        )
        injected = inject_dropped_entry(scenario.complaint_store)
        report = audit(scenario, simulation, trail)
        assert not report.checks["complaint_store"]["ok"]
        flagged = {
            divergence["peer"]
            for divergence in report.divergences
            if divergence["check"] == "complaint_store"
        }
        assert injected[1] in flagged
