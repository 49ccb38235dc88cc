"""The million-peer fast path must be invisible to results.

Four mechanisms are pinned here:

* **dirty-row score caching** (always on) must be *bit-identical* to the
  reference formulas on every backend kind (and on the sharded complaint
  store), under arbitrary interleavings of updates and queries — the cache
  only skips recomputation, never changes it — and must recompute only
  the rows a query asks for that a write or a new ``now`` made stale;
* **compact storage** (``compact=True``) keeps beta-family scores within a
  documented float32 accumulation tolerance of the float64 layout and is
  exactly equal for the complaint backend (its counts are small integers,
  exactly representable in float32);
* **streaming snapshots** (``snapshot_items``/``restore_items``) must
  round-trip across layouts — shard counts and compactness may differ
  between writer and reader — without moving any score;
* the **ChunkedArray** growth layer and the vectorized ``intern_many``
  fast path behave exactly like their flat / sequential counterparts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trust.backend import TrustObservation, create_backend
from repro.trust.sharding import ShardedBackend
from repro.trust.storage import ChunkedArray, PeerIndex

KINDS = ("beta", "decay", "complaint")
#: (kind, shards) layouts: only the complaint store is ever sharded.
LAYOUTS = tuple((kind, 1) for kind in KINDS) + (("complaint", 3),)
#: Documented tolerance of compact (float32) beta-family scores; scores are
#: probabilities in [0, 1], so this is an absolute bound.
COMPACT_SCORE_TOLERANCE = 1e-5

SUBJECTS = tuple(f"s{i}" for i in range(6))

# One event: (subject index, honest, weight, timestamp, files_complaint).
event_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(SUBJECTS) - 1),
        st.booleans(),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=0,
    max_size=50,
)


def _to_observations(stream):
    return [
        TrustObservation(
            observer_id=f"observer-{index % 3}",
            subject_id=SUBJECTS[subject],
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


def _drive_interleaved(backend, observations, chunk=7):
    """Feed observations in chunks with queries between them.

    Returns the concatenation of every intermediate query result — the
    interleaving is what exercises dirty-row invalidation (queries between
    writes populate the cache; the next write must invalidate exactly the
    touched rows).
    """
    outputs = []
    for start in range(0, len(observations) + 1, chunk):
        batch = observations[start:start + chunk]
        if batch:
            backend.update_many(batch)
        now = max((o.timestamp for o in observations[:start + chunk]), default=0.0)
        outputs.append(backend.scores_for(SUBJECTS, now=now))
        outputs.append(backend.scores_for(SUBJECTS[:2]))
    return np.concatenate(outputs) if outputs else np.zeros(0)


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


def _assert_cache_matches_reference(backend, observations, chunk=7):
    """Interleave write batches with queries; every answer must be exact.

    Queries between writes populate the cache and the next write must
    invalidate exactly the touched rows; the second query at ``now=None``
    switches the decay backend's cache key back and forth.
    """
    for start in range(0, len(observations) + 1, chunk):
        batch = observations[start:start + chunk]
        if batch:
            backend.update_many(batch)
        now = max((o.timestamp for o in observations[:start + chunk]), default=0.0)
        for subjects, at in ((SUBJECTS, now), (SUBJECTS[:2], None)):
            expected = _reference_scores(backend, subjects, at)
            assert np.array_equal(backend.scores_for(subjects, now=at), expected)


class TestDirtyRowCacheBitIdentity:
    @pytest.mark.parametrize("kind,shards", LAYOUTS)
    @settings(max_examples=40, deadline=None)
    @given(stream=event_streams)
    def test_cached_equals_reference_formula(self, kind, shards, stream):
        _assert_cache_matches_reference(
            _build(kind, shards), _to_observations(stream)
        )

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=25, deadline=None)
    @given(stream=event_streams)
    def test_cached_compact_equals_reference_formula(self, kind, stream):
        """The cache must also be exact on top of the compact layout."""
        _assert_cache_matches_reference(
            _build(kind, 1, compact=True), _to_observations(stream)
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


class TestCompactTolerance:
    @pytest.mark.parametrize("kind", ("beta", "decay"))
    @settings(max_examples=30, deadline=None)
    @given(stream=event_streams)
    def test_beta_family_within_tolerance(self, kind, stream):
        observations = _to_observations(stream)
        compact = _build(kind, 1, compact=True)
        default = _build(kind, 1)
        delta = np.abs(
            _drive_interleaved(compact, observations)
            - _drive_interleaved(default, observations)
        )
        assert delta.size == 0 or float(delta.max()) <= COMPACT_SCORE_TOLERANCE

    @pytest.mark.parametrize("shards", (1, 3))
    @settings(max_examples=30, deadline=None)
    @given(stream=event_streams)
    def test_complaint_is_exact(self, shards, stream):
        """Complaint counts are small integers: float32 holds them exactly."""
        observations = _to_observations(stream)
        compact = _build("complaint", shards, compact=True)
        default = _build("complaint", shards)
        assert np.array_equal(
            _drive_interleaved(compact, observations),
            _drive_interleaved(default, observations),
        )
        assert np.array_equal(
            compact.trust_decisions(SUBJECTS), default.trust_decisions(SUBJECTS)
        )


class TestStreamingSnapshots:
    @pytest.mark.parametrize("kind", KINDS)
    def test_items_match_snapshot(self, kind):
        backend = create_backend(kind, compact=True)
        backend.update_many(_to_observations([(0, True, 2.0, 1.0, False),
                                              (1, False, 1.0, 2.0, True)]))
        streamed = dict(backend.snapshot_items())
        snapshot = backend.snapshot()
        assert set(streamed) == set(snapshot)
        for key in snapshot:
            assert np.array_equal(
                np.asarray(streamed[key]), np.asarray(snapshot[key])
            ), key

    @pytest.mark.parametrize(
        "kind,source_shards,target_shards",
        tuple((kind, 1, 1) for kind in KINDS)
        + tuple(
            ("complaint", source, target)
            for source, target in ((4, 4), (4, 2), (2, 4))
        ),
    )
    @pytest.mark.parametrize("target_compact", (False, True))
    def test_roundtrip_across_layouts(
        self, kind, source_shards, target_shards, target_compact
    ):
        observations = _to_observations(
            [(i % len(SUBJECTS), i % 3 != 0, 1.0 + i, float(i), i % 4 == 0)
             for i in range(40)]
        )
        source = _build(kind, source_shards, compact=True)
        source.update_many(observations)
        target = _build(kind, target_shards, compact=target_compact)
        target.restore_items(iter(source.snapshot_items()))
        now = 39.0
        assert np.array_equal(
            source.scores_for(SUBJECTS, now=now),
            target.scores_for(SUBJECTS, now=now),
        )
        assert sorted(source.known_subjects()) == sorted(target.known_subjects())

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


class TestChunkedArray:
    def test_growth_crosses_chunk_boundaries(self):
        array = ChunkedArray(np.float64, chunk_size=8)
        array.ensure(20)
        idx = np.arange(20, dtype=np.int64)
        array.scatter_add(idx, np.ones(20))
        array.scatter_add(np.array([3, 9, 17], dtype=np.int64), np.full(3, 0.5))
        flat = array.materialize(20, np.float64)
        expected = np.ones(20)
        expected[[3, 9, 17]] += 0.5
        assert np.array_equal(flat, expected)

    def test_scatter_ops_match_flat(self):
        rng = np.random.default_rng(3)
        flat = np.zeros(50)
        chunked = ChunkedArray(np.float64, chunk_size=16)
        chunked.ensure(50)
        for _ in range(10):
            idx = rng.integers(0, 50, 12)
            values = rng.normal(size=12)
            np.add.at(flat, idx, values)
            chunked.scatter_add(idx.astype(np.int64), values)
        assert np.array_equal(chunked.materialize(50, np.float64), flat)
        idx = rng.integers(0, 50, 12).astype(np.int64)
        values = rng.normal(size=12)
        np.maximum.at(flat, idx, values)
        chunked.scatter_max(idx, values)
        assert np.array_equal(chunked.materialize(50, np.float64), flat)
        assert np.array_equal(chunked.gather(idx), flat[idx])

    def test_empty_index_operations_are_noops(self):
        array = ChunkedArray(np.float64, chunk_size=8)
        array.ensure(4)
        empty = np.zeros(0, dtype=np.int64)
        array.scatter_add(empty, np.zeros(0))
        array.scatter_max(empty, np.zeros(0))
        array.scatter_set(empty, np.zeros(0))
        assert np.array_equal(array.gather(empty), np.zeros(0))

    def test_nbytes_stays_chunked(self):
        """Growth allocates per chunk — no whole-table copy, bounded slack."""
        array = ChunkedArray(np.float32, chunk_size=1 << 10)
        array.ensure(5_000)
        # Five chunks of 1Ki float32 = 20 KiB; a doubling flat array would
        # have jumped to 8Ki entries (32 KiB).
        assert array.nbytes() == 5 * (1 << 10) * 4


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
