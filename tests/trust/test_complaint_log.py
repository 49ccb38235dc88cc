"""The complaint backend's one storage path: its counter table and its log.

Every write path (``update_many``, ``file_complaint``, ``record_complaints``)
appends to one filing-order complaint log and adds the same complaints to
the counters; ``restore`` replaces both.  These tests pin that the counters
always equal a recount of the log and that the log is what the snapshot
and ``all_complaints`` expose.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TrustModelError
from repro.trust.backend import (
    ComplaintTrustBackend,
    TrustObservation,
    complaints_from_snapshot,
)
from repro.trust.complaint import ComplaintTrustModel, LocalComplaintStore
from repro.trust.evidence import Complaint

AGENTS = tuple(f"a{index}" for index in range(5))

# One write: (path, complainant index, accused index, timestamp).
writes = st.lists(
    st.tuples(
        st.sampled_from(("update", "file", "record")),
        st.integers(min_value=0, max_value=len(AGENTS) - 1),
        st.integers(min_value=0, max_value=len(AGENTS) - 1),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=40,
)


def _apply(backend, path, complaint):
    """File ``complaint`` through one of the backend's write paths."""
    if path == "update":
        backend.update_many(
            [
                TrustObservation(
                    observer_id=complaint.complainant_id,
                    subject_id=complaint.accused_id,
                    honest=False,
                    timestamp=complaint.timestamp,
                )
            ]
        )
    elif path == "file":
        backend.file_complaint(complaint)
    else:
        backend.record_complaints([complaint])


def _filed(backend, stream):
    """Apply a generated write stream; return the complaints it files."""
    filed = []
    for path, complainant, accused, timestamp in stream:
        if complainant == accused:
            continue
        complaint = Complaint(AGENTS[complainant], AGENTS[accused], float(timestamp))
        _apply(backend, path, complaint)
        filed.append(complaint)
    return filed


class TestOneLog:
    def test_every_write_path_appends_in_filing_order(self):
        backend = ComplaintTrustBackend()
        backend.update_many(
            [
                TrustObservation("a", "b", honest=False, timestamp=1.0),
                TrustObservation("c", "b", honest=True, timestamp=2.0),
                TrustObservation("c", "c", honest=False, timestamp=3.0),
                TrustObservation("d", "b", honest=True, timestamp=4.0,
                                 files_complaint=True),
            ]
        )
        backend.file_complaint(Complaint("b", "a", timestamp=5.0))
        backend.record_complaints(
            [Complaint("c", "a", timestamp=6.0), Complaint("a", "c", timestamp=7.0)]
        )
        assert backend.all_complaints() == (
            Complaint("a", "b", 1.0),
            Complaint("d", "b", 4.0),
            Complaint("b", "a", 5.0),
            Complaint("c", "a", 6.0),
            Complaint("a", "c", 7.0),
        )

    @pytest.mark.parametrize("metric_mode", ComplaintTrustBackend.METRIC_MODES)
    @settings(max_examples=30, deadline=None)
    @given(stream=writes)
    def test_counters_equal_a_recount_of_the_log(self, stream, metric_mode):
        backend = ComplaintTrustBackend(metric_mode=metric_mode)
        filed = _filed(backend, stream)
        assert backend.all_complaints() == tuple(filed)
        received = Counter(c.accused_id for c in filed)
        by = Counter(c.complainant_id for c in filed)
        for agent in AGENTS + ("stranger",):
            assert backend.counts(agent) == (received[agent], by[agent])
        assert set(backend.known_subjects()) == set(received) | set(by)
        # The scalar reference model over the same log agrees.
        store = LocalComplaintStore()
        for complaint in filed:
            store.file_complaint(complaint)
        scalar = ComplaintTrustModel(store=store, metric_mode=metric_mode)
        assert backend.reference_metric() == pytest.approx(scalar.reference_metric())

    def test_empty_batches_change_nothing(self):
        backend = ComplaintTrustBackend()
        backend.record_complaints([])
        backend.update_many([])
        backend.update_many([TrustObservation("a", "b", honest=True)])
        assert backend.all_complaints() == ()
        assert backend.known_subjects() == ()
        assert backend.row_count() == 0
        assert backend.reference_metric() == 0.0


class TestReferenceCache:
    """Each write path invalidates the cached community median."""

    @pytest.mark.parametrize("path", ("update", "file", "record"))
    def test_write_refreshes_reference(self, path):
        backend = ComplaintTrustBackend(metric_mode="received")
        backend.file_complaint(Complaint("x", "y"))
        assert backend.reference_metric() == 0.5
        _apply(backend, path, Complaint("z", "y"))
        # Metrics: y=2, x=0, z=0 -> median 0.
        assert backend.reference_metric() == 0.0
        _apply(backend, path, Complaint("x", "z"))
        # Metrics: y=2, z=1, x=0 -> median 1.
        assert backend.reference_metric() == 1.0

    def test_restore_refreshes_reference(self):
        source = ComplaintTrustBackend(metric_mode="received")
        source.record_complaints([Complaint("x", "y"), Complaint("z", "y")])
        target = ComplaintTrustBackend(metric_mode="received")
        target.file_complaint(Complaint("x", "y"))
        assert target.reference_metric() == 0.5
        target.restore(source.snapshot())
        assert target.reference_metric() == source.reference_metric() == 0.0


class TestRestore:
    def test_restore_replaces_log_and_counters(self):
        source = ComplaintTrustBackend()
        source.record_complaints([Complaint("a", "b", 1.0), Complaint("b", "a", 2.0)])
        target = ComplaintTrustBackend()
        target.record_complaints([Complaint("c", "d", 9.0)] * 3)
        target.restore(source.snapshot())
        assert target.all_complaints() == source.all_complaints()
        assert target.counts("a") == source.counts("a") == (1, 1)
        assert target.counts("c") == (0, 0)
        assert sorted(target.known_subjects()) == ["a", "b"]

    def test_restored_log_keeps_appending_in_filing_order(self):
        source = ComplaintTrustBackend()
        source.file_complaint(Complaint("a", "b", 1.0))
        restored = ComplaintTrustBackend()
        restored.restore(source.snapshot())
        restored.file_complaint(Complaint("b", "c", 2.0))
        assert restored.all_complaints() == (
            Complaint("a", "b", 1.0),
            Complaint("b", "c", 2.0),
        )
        assert restored.counts("b") == (1, 1)

    def test_snapshot_log_columns_are_filing_order(self):
        backend = ComplaintTrustBackend()
        log = [Complaint("v", "c", 3.0), Complaint("c", "v", 1.0), Complaint("w", "c", 2.0)]
        backend.record_complaints(log)
        state = backend.snapshot()
        assert list(state["complainants"]) == ["v", "c", "w"]
        assert list(state["accused"]) == ["c", "v", "c"]
        np.testing.assert_array_equal(state["timestamps"], [3.0, 1.0, 2.0])
        assert complaints_from_snapshot(state) == log


class TestRestrictedRows:
    def test_log_keeps_every_complaint_counters_only_home_rows(self):
        backend = ComplaintTrustBackend()
        backend.restrict_rows(lambda agent: agent in ("a", "b"))
        backend.record_complaints(
            [Complaint("a", "x"), Complaint("x", "b"), Complaint("a", "b")]
        )
        assert len(backend.all_complaints()) == 3
        assert sorted(backend.known_subjects()) == ["a", "b"]
        assert backend.counts("a") == (0, 2)
        assert backend.counts("b") == (2, 0)
        assert backend.counts("x") == (0, 0)

    def test_restricting_after_evidence_is_rejected(self):
        backend = ComplaintTrustBackend()
        backend.file_complaint(Complaint("a", "b"))
        with pytest.raises(TrustModelError, match="restrict_rows"):
            backend.restrict_rows(lambda agent: True)


# Batches of complaints among agents a0..a9, so later batches meet new agents.
complaint_batches = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=5),
        ).filter(lambda row: row[0] != row[1]),
        max_size=6,
    ),
    max_size=8,
)


def _same_snapshots(left, right):
    assert sorted(left) == sorted(right)
    for key in left:
        assert np.asarray(left[key]).tolist() == np.asarray(right[key]).tolist(), key


class TestTaggedBatches:
    """A tagged write ends exactly as one write per batch: the same log,
    counters and row order (each batch's accused, then its complainants,
    interned in complaint order)."""

    @staticmethod
    def _tagged(batches):
        complaints, tags = [], []
        for tag, batch in enumerate(batches):
            for filer, accused, timestamp in batch:
                complaints.append(Complaint(f"a{filer}", f"a{accused}", float(timestamp)))
                tags.append(tag)
        return complaints, tags

    @settings(max_examples=60, deadline=None)
    @given(batches=complaint_batches)
    def test_plain_store(self, batches):
        per_batch, tagged = ComplaintTrustBackend(), ComplaintTrustBackend()
        complaints, tags = self._tagged(batches)
        for tag in range(len(batches)):
            per_batch.record_complaints(
                [c for c, t in zip(complaints, tags) if t == tag]
            )
        tagged.record_complaints(complaints, tags)
        _same_snapshots(per_batch.snapshot(), tagged.snapshot())

    @settings(max_examples=40, deadline=None)
    @given(batches=complaint_batches)
    def test_restricted_rows(self, batches):
        def restricted():
            backend = ComplaintTrustBackend()
            backend.restrict_rows(lambda agent: int(agent[1:]) % 2 == 0)
            return backend

        per_batch, tagged = restricted(), restricted()
        complaints, tags = self._tagged(batches)
        for tag in range(len(batches)):
            per_batch.record_complaints(
                [c for c, t in zip(complaints, tags) if t == tag]
            )
        tagged.record_complaints(complaints, tags)
        _same_snapshots(per_batch.snapshot(), tagged.snapshot())

    @settings(max_examples=30, deadline=None)
    @given(batches=complaint_batches)
    def test_sharded_store(self, batches):
        from repro.trust import create_backend

        per_batch = create_backend("complaint", shards=3, router="range")
        tagged = create_backend("complaint", shards=3, router="range")
        complaints, tags = self._tagged(batches)
        for tag in range(len(batches)):
            per_batch.record_complaints(
                [c for c, t in zip(complaints, tags) if t == tag]
            )
        tagged.record_complaints(complaints, tags)
        _same_snapshots(per_batch.snapshot(), tagged.snapshot())
