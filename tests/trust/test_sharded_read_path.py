"""The sharded store's direct read path and its one shard constructor.

:class:`~repro.trust.sharding.ShardedBackend` answers every read by
calling its home shards' methods directly and gathering the answers in
caller order against the globally pooled median reference; every inner
shard — initial, split successor or re-sharded — is built by one
constructor that merges the wrapper's shard parameters with a manifest's
scoring configuration.  These tests pin both halves against one plain
complaint backend: the complaint-store protocol under every router and
metric mode, shard tables grown between reads, gather order after live
splits, the per-write-version reference cache, the configuration and
telemetry binding of shards minted after construction,
restores across router strategies, and streamed manifests of uneven
post-split layouts.
"""

import random

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.trust import (
    ROUTER_NAMES,
    ShardedBackend,
    TrustObservation,
    create_backend,
    create_router,
)
from repro.trust.backend import ComplaintTrustBackend
from repro.trust.evidence import Complaint

METRIC_MODES = ComplaintTrustBackend.METRIC_MODES
SPLITTABLE = ("range", "ring")
PEERS = [f"peer-{index:03d}" for index in range(32)]


def _observation_stream(seed=3, count=300):
    """Observations with frequent complaints, so every store read has data."""
    rng = random.Random(seed)
    observations = []
    for index in range(count):
        observer, subject = rng.sample(PEERS, 2)
        honest = rng.random() < 0.6
        observations.append(
            TrustObservation(
                observer_id=observer,
                subject_id=subject,
                honest=honest,
                timestamp=float(index // 20),
                weight=rng.uniform(0.5, 4.0),
                files_complaint=True if honest and rng.random() < 0.2 else None,
            )
        )
    return observations


def _feed(backend, observations, batch=25):
    for start in range(0, len(observations), batch):
        backend.update_many(observations[start:start + batch])


def _shuffled_queries(seed=9):
    """Known peers in shuffled order, plus strangers and duplicates."""
    queries = PEERS + ["stranger-a", "stranger-b", PEERS[0], PEERS[5], PEERS[0]]
    random.Random(seed).shuffle(queries)
    return queries


def _complaint_keys(complaints):
    return sorted(
        (c.complainant_id, c.accused_id, c.timestamp) for c in complaints
    )


def _witness_inputs(subject_count, seed=5, witnesses=4):
    """Integer report counts and dyadic discounts: every sum is exact."""
    generator = np.random.default_rng(seed)
    matrix = generator.integers(0, 6, size=(witnesses, subject_count, 2))
    matrix = matrix.astype(np.float64)
    matrix[generator.random((witnesses, subject_count)) < 0.5] = 0.0
    discounts = generator.choice((0.25, 0.5, 1.0), size=witnesses)
    return matrix, discounts


def _growth_stream(peers=64, seed=6):
    """Observations that intern ``grower-000 .. grower-063`` one at a time:
    two earlier peers observe each newcomer, filing complaints half the
    time."""
    rng = random.Random(seed)
    names = [f"grower-{index:03d}" for index in range(peers)]
    observations = []
    for index in range(1, peers):
        for observer in (names[rng.randrange(index)], names[index - 1]):
            honest = rng.random() < 0.5
            observations.append(
                TrustObservation(
                    observer_id=observer,
                    subject_id=names[index],
                    honest=honest,
                    timestamp=float(index),
                    weight=1.0,
                    files_complaint=True if honest else None,
                )
            )
    return observations


def _split_hottest(sharded, times=1):
    for _ in range(times):
        sharded.split_shard(int(np.argmax(sharded.shard_row_counts())))


@pytest.mark.parametrize("metric_mode", METRIC_MODES)
@pytest.mark.parametrize("router", ROUTER_NAMES)
class TestComplaintStoreProtocol:
    def test_store_reads_match_plain(self, router, metric_mode):
        observations = _observation_stream()
        plain = create_backend("complaint", metric_mode=metric_mode)
        sharded = ShardedBackend(4, router=router, metric_mode=metric_mode)
        _feed(plain, observations)
        _feed(sharded, observations)
        assert _complaint_keys(sharded.all_complaints()) == _complaint_keys(
            plain.all_complaints()
        )
        for peer in PEERS + ["stranger"]:
            assert sharded.counts(peer) == plain.counts(peer)
        assert sorted(sharded.known_subjects()) == sorted(plain.known_subjects())
        assert sharded.tolerance_factor == plain.tolerance_factor
        assert sharded.metric_mode == metric_mode

    def test_shards_grow_between_queries(self, router, metric_mode):
        """Shard tables grown past two doubling boundaries (8 -> 16 -> 32
        rows) between reads keep answering exactly like the plain store."""
        plain = create_backend("complaint", metric_mode=metric_mode)
        sharded = ShardedBackend(2, router=router, metric_mode=metric_mode)
        observations = _growth_stream()
        for start in range(0, len(observations), 10):
            batch = observations[start:start + 10]
            plain.update_many(batch)
            sharded.update_many(batch)
            queries = list(plain.known_subjects()) + ["stranger"]
            np.testing.assert_array_equal(
                plain.scores_for(queries), sharded.scores_for(queries)
            )
            np.testing.assert_array_equal(
                plain.trust_decisions(queries), sharded.trust_decisions(queries)
            )
        assert max(sharded.shard_row_counts()) > 16
        assert sorted(sharded.known_subjects()) == sorted(plain.known_subjects())
        random.Random(2).shuffle(queries)
        matrix, discounts = _witness_inputs(len(queries))
        np.testing.assert_array_equal(
            plain.aggregate_witness_reports(queries, matrix, discounts),
            sharded.aggregate_witness_reports(queries, matrix, discounts),
        )


@pytest.mark.parametrize("metric_mode", METRIC_MODES)
@pytest.mark.parametrize("router", SPLITTABLE)
def test_gather_keeps_caller_order_after_splits(router, metric_mode):
    """Uneven post-split layouts still fill answers in the caller's order."""
    observations = _observation_stream(seed=7)
    plain = create_backend("complaint", metric_mode=metric_mode)
    sharded = ShardedBackend(2, router=router, metric_mode=metric_mode)
    half = len(observations) // 2
    _feed(plain, observations[:half])
    _feed(sharded, observations[:half])
    _split_hottest(sharded, times=2)
    _feed(plain, observations[half:])
    _feed(sharded, observations[half:])
    assert sharded.num_shards == 4
    for seed in (1, 2):
        queries = _shuffled_queries(seed=seed)
        np.testing.assert_array_equal(
            plain.scores_for(queries), sharded.scores_for(queries)
        )
        np.testing.assert_array_equal(
            plain.trust_decisions(queries), sharded.trust_decisions(queries)
        )
        matrix, discounts = _witness_inputs(len(queries), seed=seed)
        np.testing.assert_array_equal(
            plain.aggregate_witness_reports(queries, matrix, discounts),
            sharded.aggregate_witness_reports(queries, matrix, discounts),
        )


@pytest.mark.parametrize("metric_mode", METRIC_MODES)
def test_reference_cache_follows_every_write_path(metric_mode):
    """The per-write-version median cache is refreshed by every write kind."""
    observations = _observation_stream(seed=10)
    plain = create_backend("complaint", metric_mode=metric_mode)
    sharded = ShardedBackend(3, router="range", metric_mode=metric_mode)
    references = []

    def check():
        reference = sharded.reference_metric()
        assert reference == plain.reference_metric()
        # A repeated read inside one write version is the cached value.
        assert sharded.reference_metric() == reference
        references.append(reference)

    check()
    for start in range(0, 120, 30):
        plain.update_many(observations[start:start + 30])
        sharded.update_many(observations[start:start + 30])
        check()
    burst = [Complaint("peer-000", PEERS[index], 50.0) for index in range(1, 9)]
    plain.record_complaints(burst)
    sharded.record_complaints(burst)
    check()
    plain.file_complaint(Complaint("peer-001", "peer-000", 51.0))
    sharded.file_complaint(Complaint("peer-001", "peer-000", 51.0))
    check()
    _split_hottest(sharded)
    check()
    restored = ShardedBackend(5, router="hash")
    restored.reference_metric()  # prime the cache before the restore
    restored.restore(sharded.snapshot())
    assert restored.reference_metric() == plain.reference_metric()
    # The reference actually moved, so a stale cache would have shown.
    assert len(set(references)) > 1


class TestShardConstruction:
    """Initial, split and re-sharded shards come from one constructor."""

    @pytest.mark.parametrize("router", SPLITTABLE)
    def test_split_successors_inherit_shard_params(self, router):
        params = dict(tolerance_factor=6.0, trust_scale=2.0, metric_mode="received")
        observations = _observation_stream(seed=11)
        plain = create_backend("complaint", **params)
        sharded = ShardedBackend(2, router=router, **params)
        _feed(plain, observations)
        _feed(sharded, observations)
        _split_hottest(sharded, times=2)
        assert sharded.num_shards == 4
        for shard in sharded.shards:
            assert shard.tolerance_factor == 6.0
            assert shard.metric_mode == "received"
            assert shard.describe_config() == "complaint, unsharded, rebalance off"
        queries = _shuffled_queries()
        np.testing.assert_array_equal(
            plain.scores_for(queries), sharded.scores_for(queries)
        )

    @pytest.mark.parametrize("metric_mode", METRIC_MODES)
    def test_resharded_restore_adopts_the_manifest_scoring_config(
        self, metric_mode
    ):
        params = dict(tolerance_factor=6.0, trust_scale=2.0, metric_mode=metric_mode)
        observations = _observation_stream(seed=12)
        plain = create_backend("complaint", **params)
        source = ShardedBackend(3, router="range", **params)
        _feed(plain, observations)
        _feed(source, observations)
        # Layout knobs belong to the restoring store; scoring to the manifest.
        target = ShardedBackend(2, router="hash")
        target.restore(source.snapshot())
        for shard in target.shards:
            assert shard.tolerance_factor == 6.0
            assert shard.metric_mode == metric_mode
        assert target.tolerance_factor == 6.0
        assert target.metric_mode == metric_mode
        queries = _shuffled_queries()
        np.testing.assert_array_equal(
            plain.scores_for(queries), target.scores_for(queries)
        )

    def test_same_layout_restore_adopts_the_manifest_scoring_config(self):
        source = ShardedBackend(3, tolerance_factor=7.0, metric_mode="balanced")
        _feed(source, _observation_stream(seed=13))
        target = ShardedBackend(3)
        target.restore_items(source.snapshot_items())
        assert [shard.tolerance_factor for shard in target.shards] == [7.0] * 3
        assert [shard.metric_mode for shard in target.shards] == ["balanced"] * 3
        np.testing.assert_array_equal(
            source.scores_for(PEERS), target.scores_for(PEERS)
        )

    @pytest.mark.parametrize("mint", ("split", "reshard"))
    def test_minted_shards_report_through_the_bound_registry(self, mint):
        registry = MetricsRegistry()
        sharded = ShardedBackend(2, router="ring")
        sharded.bind_telemetry(registry)
        observations = _observation_stream(seed=14)
        _feed(sharded, observations)
        if mint == "split":
            _split_hottest(sharded)
        else:
            other = ShardedBackend(4, router="range")
            _feed(other, observations)
            sharded.restore(other.snapshot())
        assert all(shard.telemetry is registry for shard in sharded.shards)
        assert registry.snapshot()["metrics"]["sharded.shards"] == (
            sharded.num_shards
        )


class TestFanoutTelemetry:
    def test_query_fanout_counts_home_shards_per_read(self):
        registry = MetricsRegistry()
        sharded = ShardedBackend(4, router="range")
        sharded.bind_telemetry(registry)
        _feed(sharded, _observation_stream(seed=15))
        batches = [PEERS, PEERS[:1], PEERS[:1] * 3, []]
        for batch in batches:
            sharded.scores_for(batch)
        histogram = registry.snapshot()["metrics"]["sharded.query_fanout"]
        # Empty reads ask no shard and record nothing.
        assert histogram["count"] == 3
        expected = sum(
            len({sharded.shard_index_of(peer) for peer in batch})
            for batch in batches
        )
        assert histogram["total"] == expected

    def test_update_fanout_counts_touched_shards_per_batch(self):
        registry = MetricsRegistry()
        sharded = ShardedBackend(4, router="range")
        sharded.bind_telemetry(registry)
        observations = _observation_stream(seed=16)[:40]
        batches = [observations[:20], observations[20:21], observations[21:]]
        expected = 0
        for batch in batches:
            touched = {sharded.shard_index_of(o.subject_id) for o in batch}
            touched |= {
                sharded.shard_index_of(o.observer_id)
                for o in batch
                if o.complaint_filed
            }
            expected += len(touched)
            sharded.update_many(batch)
        histogram = registry.snapshot()["metrics"]["sharded.update_fanout"]
        assert histogram["count"] == len(batches)
        assert histogram["total"] == expected


@pytest.mark.parametrize("target_router", ROUTER_NAMES)
@pytest.mark.parametrize("source_router", ROUTER_NAMES)
def test_restore_across_router_strategies(source_router, target_router):
    """Any router's manifest (post-split where splittable) restores onto any
    other router and shard count with identical scores and store reads."""
    observations = _observation_stream(seed=17)
    plain = create_backend("complaint", metric_mode="balanced")
    source = ShardedBackend(3, router=source_router, metric_mode="balanced")
    _feed(plain, observations)
    _feed(source, observations)
    if source_router in SPLITTABLE:
        _split_hottest(source)
    target = ShardedBackend(5, router=target_router)
    target.restore(source.snapshot())
    assert target.metric_mode == "balanced"
    queries = _shuffled_queries()
    np.testing.assert_array_equal(
        plain.scores_for(queries), target.scores_for(queries)
    )
    np.testing.assert_array_equal(
        plain.trust_decisions(queries), target.trust_decisions(queries)
    )
    assert _complaint_keys(target.all_complaints()) == _complaint_keys(
        plain.all_complaints()
    )
    for peer in PEERS:
        assert target.counts(peer) == plain.counts(peer)


@pytest.mark.parametrize("metric_mode", METRIC_MODES)
@pytest.mark.parametrize("split_once", (False, True))
def test_streamed_manifest_matches_snapshot(split_once, metric_mode):
    """``snapshot_items`` streams exactly ``snapshot()`` — including uneven
    post-split layouts — and streams back into the same layout or another."""
    sharded = ShardedBackend(3, router="range", metric_mode=metric_mode)
    _feed(sharded, _observation_stream(seed=18))
    if split_once:
        sharded.split_shard(0)
    streamed = dict(sharded.snapshot_items())
    snapshot = sharded.snapshot()
    assert list(streamed) == list(snapshot)
    for key, value in snapshot.items():
        assert np.asarray(streamed[key]).dtype == np.asarray(value).dtype, key
        assert np.array_equal(np.asarray(streamed[key]), np.asarray(value)), key
    expected = sharded.scores_for(PEERS)
    same_layout = ShardedBackend(
        sharded.num_shards,
        router=create_router(
            "range", sharded.num_shards, state=sharded.router.state()
        ),
    )
    other_layout = ShardedBackend(2, router="ring")
    for target in (same_layout, other_layout):
        target.restore_items(sharded.snapshot_items())
        assert target.metric_mode == metric_mode
        np.testing.assert_array_equal(expected, target.scores_for(PEERS))
