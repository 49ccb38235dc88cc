"""Unit tests for the distributed (P-Grid-backed) reputation store."""

import numpy as np
import pytest

from repro.pgrid.network import PGridNetwork
from repro.reputation.store import DistributedReputationStore
from repro.trust.backend import ComplaintTrustBackend, complaints_from_snapshot
from repro.trust.complaint import ComplaintTrustModel
from repro.trust.evidence import Complaint


def build_distributed_store(peers=16, seed=1):
    network = PGridNetwork([f"p{i}" for i in range(peers)], seed=seed)
    network.build("balanced")
    return DistributedReputationStore(network)


class TestDistributedReputationStore:
    def test_complaint_round_trip(self):
        store = build_distributed_store()
        store.file_complaint(Complaint("victim", "cheat", timestamp=2.0))
        about = store.complaints_about("cheat")
        assert len(about) == 1
        assert about[0].complainant_id == "victim"
        by = store.complaints_by("victim")
        assert len(by) == 1
        assert by[0].accused_id == "cheat"

    def test_known_agents_registry(self):
        store = build_distributed_store()
        store.file_complaint(Complaint("a", "b"))
        assert set(store.known_agents()) == {"a", "b"}

    def test_complaint_reports_per_replica(self):
        network = PGridNetwork([f"p{i}" for i in range(24)], seed=2)
        network.build("balanced", depth=3)
        store = DistributedReputationStore(network)
        for index in range(3):
            store.file_complaint(Complaint(f"victim-{index}", "cheat"))
        reports = store.complaint_reports_about("cheat")
        assert reports
        # Honest replicas all report the same counts.
        assert all(report[0] == 3 for report in reports)

    def test_complaint_reports_capped_by_max_replicas(self):
        network = PGridNetwork([f"p{i}" for i in range(24)], seed=2)
        network.build("balanced", depth=3)
        store = DistributedReputationStore(network)
        store.file_complaint(Complaint("victim", "cheat"))
        assert len(store.complaint_reports_about("cheat")) > 1
        assert store.complaint_reports_about("cheat", max_replicas=1) == [(1, 0)]

    def test_works_with_complaint_trust_model(self):
        store = build_distributed_store()
        model = ComplaintTrustModel(store=store, metric_mode="balanced",
                                    tolerance_factor=1.0)
        for index in range(4):
            model.file_complaint(f"victim-{index}", "cheat")
        assert not model.is_trustworthy("cheat")
        assert model.is_trustworthy("victim-0")

    def test_garbage_payloads_ignored(self):
        store = build_distributed_store()
        # Insert a corrupted value directly under the complaint key.
        store.network.insert(
            DistributedReputationStore.ABOUT_PREFIX + "someone", "garbage|data"
        )
        assert store.complaints_about("someone") == []


class TestDistributedStoreCheckpointing:
    """Distributed complaint state checkpoints like backend state does."""

    def _populate(self, store):
        for index in range(5):
            store.file_complaint(
                Complaint(f"victim-{index % 2}", "cheat", timestamp=float(index))
            )
        store.file_complaint(Complaint("cheat", "victim-0", timestamp=9.0))

    def test_all_complaints_enumerates_each_once(self):
        store = build_distributed_store()
        self._populate(store)
        complaints = store.all_complaints()
        assert len(complaints) == 6
        assert sum(1 for c in complaints if c.accused_id == "cheat") == 5

    def test_snapshot_restores_into_a_different_network(self):
        store = build_distributed_store(peers=16, seed=1)
        self._populate(store)
        state = store.snapshot()
        assert all(hasattr(value, "dtype") for value in state.values())

        restored = build_distributed_store(peers=8, seed=5)
        restored.restore(state)
        assert set(restored.known_agents()) == set(store.known_agents())
        for agent in store.known_agents():
            assert len(restored.complaints_about(agent)) == len(
                store.complaints_about(agent)
            )
            assert len(restored.complaints_by(agent)) == len(
                store.complaints_by(agent)
            )

    def test_snapshot_log_uses_the_backend_log_columns(self):
        store = build_distributed_store()
        self._populate(store)
        state = store.snapshot()
        assert complaints_from_snapshot(state) == list(store.all_complaints())
        backend = ComplaintTrustBackend()
        backend.record_complaints(store.all_complaints())
        backend_state = backend.snapshot()
        for key in ("complainants", "accused", "timestamps"):
            assert np.array_equal(state[key], backend_state[key]), key

    def test_restore_rejects_foreign_snapshot(self):
        store = build_distributed_store()
        with pytest.raises(Exception):
            store.restore({"store": None})

    def test_restore_refuses_non_fresh_store(self):
        # P-Grid inserts are append-only; restoring over existing evidence
        # would duplicate every complaint instead of replacing it.
        store = build_distributed_store()
        self._populate(store)
        state = store.snapshot()
        with pytest.raises(Exception):
            store.restore(state)
        assert len(store.complaints_about("cheat")) == 5

    def test_complaint_log_replays_into_a_backend(self):
        """The enumerated P-Grid log feeds a complaint backend, which round-trips."""
        store = build_distributed_store()
        self._populate(store)
        backend = ComplaintTrustBackend(metric_mode="balanced")
        backend.record_complaints(store.all_complaints())
        state = backend.snapshot()

        restored = ComplaintTrustBackend(metric_mode="balanced")
        restored.restore(state)
        queries = ("cheat", "victim-0", "victim-1", "nobody")
        assert list(restored.scores_for(queries)) == list(
            backend.scores_for(queries)
        )
        assert restored.counts("cheat") == backend.counts("cheat") == (5, 1)
        assert restored.all_complaints() == store.all_complaints()
