"""The million-peer fast path must be invisible to results.

Four mechanisms are pinned here:

* **dirty-row score caching** (always on) must be *bit-identical* to the
  reference formulas on every backend kind (and on the sharded complaint
  store), under arbitrary interleavings of updates and queries — the cache
  only skips recomputation, never changes it, so reads between writes
  move no later answer — and must recompute only the rows a query asks
  for that a write or a new ``now`` made stale.  Growing the evidence
  columns past their doubling boundaries must keep every existing row,
  cached score and generation;
* **streaming snapshots** (``snapshot_items``/``restore_items``) must
  round-trip across layouts — shard counts may differ between writer and
  reader — without moving any score, and a restore replaces whatever
  evidence and cached scores the target held;
* **flat growth** (``grow`` and ``EvidenceTable``) doubles every column
  and the score cache in lockstep, keeping rows and canonical dtypes;
* the vectorized ``intern_many`` fast path behaves exactly like
  sequential interning.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trust.backend import TrustObservation, create_backend
from repro.trust.sharding import ShardedBackend
from repro.trust.storage import COLUMNS, EvidenceTable, PeerIndex, grow

KINDS = ("beta", "decay", "complaint")
#: (kind, shards) layouts: only the complaint store is ever sharded.
LAYOUTS = tuple((kind, 1) for kind in KINDS) + (("complaint", 3),)

SUBJECTS = tuple(f"s{i}" for i in range(6))
#: Subjects a growth stream interns, in order: enough rows to carry the
#: evidence columns (and the score cache) across the 8 -> 16 -> 32 doubling
#: boundaries.
GROWTH_SUBJECTS = 30


def _events(subjects):
    """One event: (subject index, honest, weight, timestamp, files_complaint)."""
    return st.tuples(
        subjects,
        st.booleans(),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        st.booleans(),
    )


event_streams = st.lists(
    _events(st.integers(min_value=0, max_value=len(SUBJECTS) - 1)),
    min_size=0,
    max_size=50,
)


@st.composite
def growth_streams(draw):
    """Subjects ``s0 .. s29`` interned in order, with repeats of ``SUBJECTS``.

    Fed in batches with queries between them, the table grows past two
    doubling boundaries while earlier rows hold cached scores.
    """
    events = []
    for subject in range(GROWTH_SUBJECTS):
        events.append(draw(_events(st.just(subject))))
        events.extend(
            draw(
                st.lists(
                    _events(st.integers(min_value=0, max_value=len(SUBJECTS) - 1)),
                    max_size=2,
                )
            )
        )
    return events


def _to_observations(stream):
    return [
        TrustObservation(
            observer_id=f"observer-{index % 3}",
            subject_id=f"s{subject}",
            honest=honest,
            timestamp=timestamp,
            weight=weight,
            files_complaint=files_complaint,
        )
        for index, (subject, honest, weight, timestamp, files_complaint) in enumerate(
            stream
        )
    ]


def _build(kind, shards, **params):
    if shards == 1:
        return create_backend(kind, **params)
    assert kind == "complaint"
    return ShardedBackend(shards, **params)


def _reference_scores(backend, subject_ids, now):
    """The uncached formulas the score cache must reproduce bit for bit.

    Beta family: the posterior mean ``alpha / (alpha + beta)`` of
    ``beliefs_for``.  Complaint: each subject's metric (from its home shard
    when sharded) mapped through ``scores_from_metrics`` against the median
    of every in-store metric value.
    """
    if backend.name in ("beta", "decay"):
        alpha, beta = backend.beliefs_for(subject_ids, now=now)
        return alpha / (alpha + beta)
    if isinstance(backend, ShardedBackend):
        shards = backend.shards
        metrics = np.array(
            [
                shards[backend.shard_index_of(subject)].metrics_for((subject,))[0]
                for subject in subject_ids
            ]
        )
    else:
        shards = (backend,)
        metrics = backend.metrics_for(subject_ids)
    values = np.concatenate([shard.metric_values_in_store() for shard in shards])
    reference = float(np.median(values)) if values.size else 0.0
    return shards[0].scores_from_metrics(metrics, reference)


def _row_state(backend):
    """``(names, arrays)``: every evidence column and score-cache array, cut
    to the table's live rows (``None`` for the sharded store)."""
    if isinstance(backend, ShardedBackend):
        return None
    table = backend._table
    size = len(table)
    arrays = [table[name] for name in backend.COLUMNS]
    arrays += [
        cache
        for cache in (table._scores, table._score_generations)
        if cache is not None
    ]
    return table.index.names(), [array[:size].copy() for array in arrays]


def _assert_untouched_rows_kept(before, after, batch):
    """A write batch (and the growth it causes) leaves other rows alone."""
    names, old_arrays = before
    touched = {o.subject_id for o in batch} | {o.observer_id for o in batch}
    kept = [row for row, name in enumerate(names) if name not in touched]
    assert after[0][: len(names)] == names
    for old, new in zip(old_arrays, after[1]):
        assert np.array_equal(new[kept], old[kept])


def _assert_cache_matches_reference(backend, observations, chunk=7):
    """Interleave write batches with queries; every answer must be exact.

    Queries between writes populate the cache and the next write must
    invalidate exactly the touched rows, while every other row keeps its
    evidence, cached score and generation through any column growth; the
    query at ``now=None`` switches the decay backend's cache key back and
    forth.
    """
    for start in range(0, len(observations) + 1, chunk):
        batch = observations[start:start + chunk]
        if batch:
            before = _row_state(backend)
            backend.update_many(batch)
            if before is not None:
                _assert_untouched_rows_kept(before, _row_state(backend), batch)
        now = max((o.timestamp for o in observations[:start + chunk]), default=0.0)
        for subjects, at in (
            (SUBJECTS, now),
            (SUBJECTS[:2], None),
            (backend.known_subjects(), now),
        ):
            expected = _reference_scores(backend, subjects, at)
            assert np.array_equal(backend.scores_for(subjects, now=at), expected)


class TestDirtyRowCacheBitIdentity:
    @pytest.mark.parametrize("kind,shards", LAYOUTS)
    @settings(max_examples=40, deadline=None)
    @given(stream=st.one_of(event_streams, growth_streams()))
    def test_cached_equals_reference_formula(self, kind, shards, stream):
        _assert_cache_matches_reference(
            _build(kind, shards), _to_observations(stream)
        )

    @pytest.mark.parametrize("kind,shards", LAYOUTS)
    @settings(max_examples=25, deadline=None)
    @given(stream=st.one_of(event_streams, growth_streams()))
    def test_reads_between_writes_move_no_score(self, kind, shards, stream):
        """A backend queried between write batches ends bit-identical to
        one fed the same batches and queried once."""
        observations = _to_observations(stream)
        reader = _build(kind, shards)
        silent = _build(kind, shards)
        for start in range(0, len(observations), 7):
            batch = observations[start:start + 7]
            reader.update_many(batch)
            silent.update_many(batch)
            reader.scores_for(SUBJECTS, now=batch[-1].timestamp)
            reader.trust_decisions(reader.known_subjects())
        now = max((o.timestamp for o in observations), default=0.0)
        subjects = silent.known_subjects() + ("missing",)
        assert np.array_equal(
            reader.scores_for(subjects, now=now), silent.scores_for(subjects, now=now)
        )
        assert np.array_equal(
            reader.trust_decisions(subjects, now=now),
            silent.trust_decisions(subjects, now=now),
        )

    def test_decay_cache_tracks_now(self):
        """Changing ``now`` between queries must never serve stale decays."""
        backend = create_backend("decay")
        backend.update_many(
            [
                TrustObservation("o", "s0", True, timestamp=0.0, weight=5.0),
                TrustObservation("o", "s1", False, timestamp=10.0, weight=2.0),
            ]
        )
        subjects = ("s0", "s1", "missing")
        for now in (10.0, 50.0, 50.0, 10.0, 200.0):
            assert np.array_equal(
                backend.scores_for(subjects, now=now),
                _reference_scores(backend, subjects, now),
            )


class TestScoreCacheWork:
    """Deterministic work counts: rows recomputed per score query."""

    @staticmethod
    def _count_recomputed_rows(backend):
        recomputed = []
        formula = backend._row_scores

        def counting(rows, now):
            recomputed.append(len(rows))
            return formula(rows, now)

        backend._row_scores = counting
        return recomputed

    @staticmethod
    def _seeded(kind):
        backend = create_backend(kind)
        backend.update_many(
            _to_observations(
                [(i, i % 2 == 0, 1.0, float(i), False) for i in range(len(SUBJECTS))]
            )
        )
        return backend

    def test_beta_repeat_query_at_a_new_now_recomputes_nothing(self):
        backend = self._seeded("beta")
        recomputed = self._count_recomputed_rows(backend)
        first = backend.scores_for(SUBJECTS, now=1.0)
        assert sum(recomputed) == len(SUBJECTS)
        recomputed.clear()
        for now in (2.0, 50.0, None):
            assert np.array_equal(backend.scores_for(SUBJECTS, now=now), first)
        assert recomputed == []
        backend.update(TrustObservation("o", SUBJECTS[3], False, timestamp=9.0))
        backend.scores_for(SUBJECTS, now=60.0)
        assert recomputed == [1]

    def test_decay_recomputes_only_the_rows_asked_for(self):
        backend = self._seeded("decay")
        recomputed = self._count_recomputed_rows(backend)
        backend.scores_for(SUBJECTS, now=10.0)
        assert sum(recomputed) == len(SUBJECTS)
        recomputed.clear()
        backend.scores_for(SUBJECTS[:2], now=20.0)
        assert recomputed == [2]
        backend.scores_for(SUBJECTS[:2], now=20.0)
        assert recomputed == [2]
        backend.update(TrustObservation("o", SUBJECTS[0], True, timestamp=15.0))
        backend.scores_for(SUBJECTS[:2], now=20.0)
        assert recomputed == [2, 1]


#: (kind, source shards, target shards) snapshot round trips.
ROUNDTRIPS = tuple((kind, 1, 1) for kind in KINDS) + tuple(
    ("complaint", source, target) for source, target in ((4, 4), (4, 2), (2, 4))
)


def _roundtrip_observations():
    return _to_observations(
        [(i % len(SUBJECTS), i % 3 != 0, 1.0 + i, float(i), i % 4 == 0)
         for i in range(40)]
    )


class TestStreamingSnapshots:
    @pytest.mark.parametrize("kind", KINDS)
    def test_items_match_snapshot(self, kind):
        backend = create_backend(kind)
        backend.update_many(_to_observations([(0, True, 2.0, 1.0, False),
                                              (1, False, 1.0, 2.0, True)]))
        streamed = dict(backend.snapshot_items())
        snapshot = backend.snapshot()
        assert set(streamed) == set(snapshot)
        for key in snapshot:
            assert np.array_equal(
                np.asarray(streamed[key]), np.asarray(snapshot[key])
            ), key

    @pytest.mark.parametrize("kind,source_shards,target_shards", ROUNDTRIPS)
    def test_roundtrip_across_layouts(self, kind, source_shards, target_shards):
        source = _build(kind, source_shards)
        source.update_many(_roundtrip_observations())
        target = _build(kind, target_shards)
        target.restore_items(iter(source.snapshot_items()))
        now = 39.0
        assert np.array_equal(
            source.scores_for(SUBJECTS, now=now),
            target.scores_for(SUBJECTS, now=now),
        )
        assert sorted(source.known_subjects()) == sorted(target.known_subjects())

    @pytest.mark.parametrize("kind,source_shards,target_shards", ROUNDTRIPS)
    def test_restore_replaces_a_populated_target(
        self, kind, source_shards, target_shards
    ):
        """Restoring over evidence and warm cached scores keeps none of it."""
        source = _build(kind, source_shards)
        source.update_many(_roundtrip_observations())
        target = _build(kind, target_shards)
        target.update_many(
            _to_observations([(i, False, 3.0, 50.0, True) for i in range(4)])
            + [TrustObservation("o", "only-in-target", False, timestamp=50.0)]
        )
        target.scores_for(SUBJECTS + ("only-in-target",), now=60.0)
        target.restore(source.snapshot())
        assert sorted(target.known_subjects()) == sorted(source.known_subjects())
        for now in (60.0, 39.0):
            assert np.array_equal(
                source.scores_for(SUBJECTS, now=now),
                target.scores_for(SUBJECTS, now=now),
            )
        assert np.array_equal(
            source.trust_decisions(SUBJECTS), target.trust_decisions(SUBJECTS)
        )

    def test_streaming_restore_is_incremental_per_shard(self):
        """Same-layout streaming restore loads one shard at a time."""
        source = _build("complaint", 4)
        source.update_many(
            _to_observations([(i % 6, True, 1.0, 0.0, True) for i in range(30)])
        )
        target = _build("complaint", 4)

        seen = []

        def spy_stream():
            for key, value in source.snapshot_items():
                seen.append(key)
                yield key, value

        target.restore_items(spy_stream())
        # The stream was actually consumed lazily as a generator (meta first,
        # then shard-prefixed entries, manifest last).
        assert seen[-1] == "manifest"
        assert any(key.startswith("shard-0000/") for key in seen)
        assert np.array_equal(
            source.scores_for(SUBJECTS), target.scores_for(SUBJECTS)
        )


class TestFlatGrowth:
    """The evidence columns grow by amortised doubling, in lockstep."""

    @pytest.mark.parametrize("name,dtype", COLUMNS)
    def test_grow_keeps_rows_and_dtype(self, name, dtype):
        values = np.arange(1, 6).astype(dtype)
        grown = grow(values, 20)
        assert grown.dtype == np.dtype(dtype), name
        assert len(grown) == 32
        assert np.array_equal(grown[:5], values)
        assert not grown[5:].any()

    def test_grow_within_capacity_is_the_same_array(self):
        array = np.zeros(16)
        assert grow(array, 16) is array
        assert grow(array, 0) is array
        assert len(grow(np.zeros(0), 1)) == 8

    def test_columns_and_score_cache_grow_in_lockstep(self):
        table = EvidenceTable(("alpha", "count", "in_store"))
        capacities = []
        for index in range(33):
            table.intern_many([f"p{index}"])
            if index == 0:
                table.cached_scores(np.zeros(1, dtype=np.int64), 0.5, np.ones_like)
            capacities.append(len(table["alpha"]))
            assert len(table["count"]) == len(table["in_store"]) == capacities[-1]
            assert len(table._scores) == len(table._score_generations)
            assert len(table._scores) == capacities[-1]
        assert sorted(set(capacities)) == [8, 16, 32, 64]

    def test_empty_intern_leaves_the_table_empty(self):
        table = EvidenceTable(("alpha", "beta"))
        rows = table.intern_many([])
        assert rows.shape == (0,) and len(table) == 0
        assert len(table["alpha"]) == 0
        assert table.cached_scores(rows, 0.5, np.ones_like).shape == (0,)

    @pytest.mark.parametrize("rows", (0, 1, 8, 9))
    def test_restore_then_grow_keeps_restored_rows(self, rows):
        table = EvidenceTable(("alpha", "count"))
        alpha = np.linspace(1.0, 2.0, rows)
        table.restore(
            {
                "peer_ids": np.array([f"p{i}" for i in range(rows)], dtype=object),
                "alpha": alpha,
                "count": np.arange(rows),
            }
        )
        assert len(table) == rows
        table.intern_many([f"new{i}" for i in range(10)])
        assert np.array_equal(table["alpha"][:rows], alpha)
        assert np.array_equal(table["count"][:rows], np.arange(rows))
        assert not table["alpha"][rows:].any()
        assert table["count"].dtype == np.int64


class TestInternMany:
    @settings(max_examples=60, deadline=None)
    @given(
        names=st.lists(
            st.sampled_from([f"p{i}" for i in range(9)]), max_size=40
        )
    )
    def test_matches_sequential_intern(self, names):
        batched = PeerIndex()
        sequential = PeerIndex()
        batched_rows = batched.intern_many(names)
        sequential_rows = np.array(
            [sequential.intern(name) for name in names], dtype=np.int64
        )
        assert np.array_equal(batched_rows, sequential_rows.reshape(-1))
        assert batched.names() == sequential.names()

    @settings(max_examples=60, deadline=None)
    @given(
        known=st.lists(st.sampled_from([f"p{i}" for i in range(9)]), max_size=9),
        queries=st.lists(
            st.sampled_from([f"p{i}" for i in range(12)]), max_size=30
        ),
    )
    def test_lookup_many_matches_scalar(self, known, queries):
        index = PeerIndex()
        index.intern_many(known)
        rows = index.lookup_many(queries)
        expected = np.array(
            [index._ids.get(name, -1) for name in queries], dtype=np.int64
        )
        assert np.array_equal(rows, expected.reshape(-1))
