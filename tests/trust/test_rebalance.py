"""Live shard rebalancing: splittable routers, in-place splits, restores.

Pins the rebalancing contract of :class:`~repro.trust.sharding.
ShardedBackend`: a live split — snapshot the hot shard, re-file its
complaint log onto two successors, swap the router's key table — is
*score-invisible* under every metric mode, only the split shard's keys
ever move, and the per-shard manifest round-trips the uneven post-split
layout (including onto one shard, or onto more shards than there are
peers).  Also the regression tests for the range router's
key-space coverage: ids minted after construction (flash-crowd arrivals)
must route deterministically and stably, never through an out-of-range
fallback.
"""

import random

import numpy as np
import pytest

from repro.exceptions import TrustModelError
from repro.trust import (
    RangeShardRouter,
    RebalancePolicy,
    RingShardRouter,
    ShardedBackend,
    TrustObservation,
    create_backend,
    create_router,
)
from repro.trust.backend import ComplaintTrustBackend
from repro.trust.sharding import _KEY_SPACE, shard_key

METRIC_MODES = ComplaintTrustBackend.METRIC_MODES
SPLITTABLE = (RangeShardRouter, RingShardRouter)


def _observation_stream(n_observations=360, n_peers=40, seed=17):
    rng = random.Random(seed)
    peers = [f"peer-{index:03d}" for index in range(n_peers)]
    observations = []
    for index in range(n_observations):
        observer, subject = rng.sample(peers, 2)
        observations.append(
            TrustObservation(
                observer_id=observer,
                subject_id=subject,
                honest=rng.random() < 0.6,
                timestamp=float(index // 20),
                weight=rng.uniform(0.5, 4.0),
                files_complaint=True if rng.random() < 0.1 else None,
            )
        )
    return peers, observations


class TestSplittableRouters:
    @pytest.mark.parametrize("router_class", SPLITTABLE)
    def test_split_moves_only_the_hot_shards_keys(self, router_class):
        router = router_class(3)
        ids = [f"peer-{index}" for index in range(3000)]
        before = {peer: router.shard_of(peer) for peer in ids}
        loads = {shard: 0 for shard in range(3)}
        for shard in before.values():
            loads[shard] += 1
        hot = max(loads, key=loads.get)
        new_index = router.split(hot)
        assert new_index == 3
        assert router.num_shards == 4
        after = {peer: router.shard_of(peer) for peer in ids}
        moved = [peer for peer in ids if before[peer] != after[peer]]
        assert moved, "a split must move some keys"
        for peer in moved:
            assert before[peer] == hot
            assert after[peer] == new_index
        # Splitting halves the key space, so a decent chunk actually moves.
        assert len(moved) >= loads[hot] // 4

    @pytest.mark.parametrize("router_class", SPLITTABLE)
    def test_state_round_trip_preserves_assignment(self, router_class):
        router = router_class(4)
        router.split(1)
        router.split(0)
        clone = router_class(router.num_shards, state=router.state())
        for index in range(2000):
            peer = f"wanderer-{index}"
            assert clone.shard_of(peer) == router.shard_of(peer)
        assert clone.same_layout(router)

    @pytest.mark.parametrize("router_class", SPLITTABLE)
    def test_repeated_splits_stay_in_range(self, router_class):
        router = router_class(2)
        for _ in range(10):
            router.split(router.num_shards - 1)
        for index in range(1000):
            assert 0 <= router.shard_of(f"p-{index}") < router.num_shards

    def test_hash_router_cannot_split(self):
        router = create_router("hash", 4)
        with pytest.raises(TrustModelError):
            router.split(0)

    def test_split_index_out_of_range_rejected(self):
        router = RangeShardRouter(2)
        with pytest.raises(TrustModelError):
            router.split(2)
        with pytest.raises(TrustModelError):
            router.split(-1)


class TestRangeRouterCoverage:
    """Regression: ids outside any *configured* interval must not exist."""

    def test_ids_minted_after_construction_route_deterministically(self):
        # Flash-crowd arrivals: ids the router has never seen, minted long
        # after construction, must land in a real home interval — the same
        # one on every identically-configured router.
        router = RangeShardRouter(4)
        twin = RangeShardRouter(4)
        assignments = {}
        for counter in range(500):
            late_id = f"flash-new-{counter}"
            shard = router.shard_of(late_id)
            assert 0 <= shard < 4
            assert twin.shard_of(late_id) == shard
            assignments.setdefault(shard, 0)
            assignments[shard] += 1
        # Not an over-wide fallback: late ids spread over the real
        # intervals instead of piling onto the last shard.
        assert len(assignments) == 4
        assert assignments.get(3, 0) < 500

    def test_assignment_stable_across_snapshot_restore(self):
        peers, observations = _observation_stream()
        original = ShardedBackend(4, router="range")
        original.update_many(observations)
        original.split_shard(1)  # uneven layout: the state must travel
        restored = ShardedBackend(5, router="range")
        restored.restore(original.snapshot())
        # The restored backend re-routes with its own (default, even) table;
        # scores must match regardless, and ids minted only after the
        # restore must route identically on identically-configured backends.
        np.testing.assert_array_equal(
            original.scores_for(peers), restored.scores_for(peers)
        )
        twin = ShardedBackend(5, router="range")
        twin.restore(original.snapshot())
        for counter in range(200):
            late_id = f"flash-new-{counter}"
            assert restored.shard_index_of(late_id) == twin.shard_index_of(late_id)

    def test_partial_interval_table_rejected(self):
        # A table not anchored at key 0 would silently send every low key
        # to the last interval's owner (the "over-wide fallback" bug).
        bad = np.array([[1000, _KEY_SPACE // 2], [0, 1]], dtype=np.int64)
        with pytest.raises(TrustModelError):
            RangeShardRouter(2, state=bad)

    def test_malformed_state_rejected(self):
        descending = np.array([[0, 10, 5], [0, 1, 2]], dtype=np.int64)
        with pytest.raises(TrustModelError):
            RangeShardRouter(3, state=descending)
        unowned = np.array([[0, 100], [0, 0]], dtype=np.int64)
        with pytest.raises(TrustModelError):
            RangeShardRouter(2, state=unowned)
        with pytest.raises(TrustModelError):
            RingShardRouter(2, state=unowned)

    def test_default_table_matches_legacy_formula(self):
        # PR 3's range router computed (key * N) >> 32; the boundary table
        # must reproduce it exactly so old snapshots re-shard identically.
        router = RangeShardRouter(7)
        for index in range(2000):
            peer = f"legacy-{index}"
            assert router.shard_of(peer) == (shard_key(peer) * 7) >> 32


@pytest.mark.parametrize("metric_mode", METRIC_MODES)
@pytest.mark.parametrize("router", ("range", "ring"))
class TestLiveSplit:
    def test_mid_stream_split_is_bit_invisible(self, router, metric_mode):
        peers, observations = _observation_stream()
        plain = create_backend("complaint", metric_mode=metric_mode)
        sharded = ShardedBackend(2, router=router, metric_mode=metric_mode)
        half = len(observations) // 2
        for backend in (plain, sharded):
            backend.update_many(observations[:half])
        rows = sharded.shard_row_counts()
        hot = int(np.argmax(rows))
        new_index = sharded.split_shard(hot)
        assert new_index == 2
        assert sharded.num_shards == 3
        queries = peers + ["stranger-a", peers[0]]
        np.testing.assert_array_equal(
            plain.scores_for(queries), sharded.scores_for(queries)
        )
        # The backend keeps learning identically after the split.
        for backend in (plain, sharded):
            backend.update_many(observations[half:])
        np.testing.assert_array_equal(
            plain.scores_for(queries), sharded.scores_for(queries)
        )
        np.testing.assert_array_equal(
            plain.trust_decisions(queries), sharded.trust_decisions(queries)
        )
        assert sorted(plain.known_subjects()) == sorted(sharded.known_subjects())

    def test_split_event_accounting(self, router, metric_mode):
        peers, observations = _observation_stream()
        sharded = ShardedBackend(2, router=router, metric_mode=metric_mode)
        sharded.update_many(observations)
        rows_before = sharded.shard_row_counts()
        hot = int(np.argmax(rows_before))
        sharded.split_shard(hot)
        (event,) = sharded.rebalance_events
        assert event.source_shard == hot
        assert event.new_shard == 2
        assert event.num_shards_after == 3
        assert event.rows_kept + event.rows_moved >= int(rows_before[hot])
        assert sharded.rebalance_seconds > 0.0
        assert len(sharded.shard_update_counts) == 3

    def test_snapshot_after_split_restores_everywhere(
        self, router, metric_mode
    ):
        """The uneven post-split manifest restores onto any layout."""
        peers, observations = _observation_stream()
        sharded = ShardedBackend(3, router=router, metric_mode=metric_mode)
        sharded.update_many(observations)
        sharded.split_shard(int(np.argmax(sharded.shard_row_counts())))
        state = sharded.snapshot()
        assert "router_state" in state
        expected = sharded.scores_for(peers)
        # Onto a single shard, onto more shards than peers, onto the other
        # router, and onto the very same (uneven) layout.
        targets = [
            ShardedBackend(1, router=router),
            ShardedBackend(64, router=router),
            ShardedBackend(2, router="hash"),
            ShardedBackend(
                sharded.num_shards,
                router=create_router(router, sharded.num_shards,
                                     state=sharded.router.state()),
            ),
        ]
        for target in targets:
            target.restore(state)
            assert target.metric_mode == metric_mode
            np.testing.assert_array_equal(expected, target.scores_for(peers))
            np.testing.assert_array_equal(
                sharded.trust_decisions(peers), target.trust_decisions(peers)
            )

    def test_restore_onto_more_shards_than_live_peers(
        self, router, metric_mode
    ):
        sharded = ShardedBackend(2, router=router, metric_mode=metric_mode)
        sharded.update_many(
            [
                TrustObservation("a", "b", False, timestamp=1.0,
                                 files_complaint=True),
                TrustObservation("b", "c", True, timestamp=2.0),
            ]
        )
        wide = ShardedBackend(32, router=router)
        wide.restore(sharded.snapshot())
        assert wide.metric_mode == metric_mode
        queries = ("a", "b", "c", "nobody")
        np.testing.assert_array_equal(
            sharded.scores_for(queries), wide.scores_for(queries)
        )
        # Empty shards must snapshot and restore cleanly too.
        again = ShardedBackend(1, router=router)
        again.restore(wide.snapshot())
        np.testing.assert_array_equal(
            sharded.scores_for(queries), again.scores_for(queries)
        )


class TestComplaintSplitIntegrity:
    def test_split_preserves_counts_log_and_reference(self):
        peers, observations = _observation_stream(seed=29)
        plain = create_backend("complaint")
        sharded = ShardedBackend(2, router="range")
        plain.update_many(observations)
        sharded.update_many(observations)
        sharded.split_shard(0)
        sharded.split_shard(1)
        assert plain.reference_metric() == sharded.reference_metric()
        for peer in peers:
            assert plain.counts(peer) == sharded.counts(peer)
        assert sorted(
            (c.complainant_id, c.accused_id, c.timestamp)
            for c in sharded.all_complaints()
        ) == sorted(
            (c.complainant_id, c.accused_id, c.timestamp)
            for c in plain.all_complaints()
        )


class TestAutoRebalance:
    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(TrustModelError, match="finite"):
            RebalancePolicy(threshold=threshold)

    def test_policy_validation(self):
        with pytest.raises(TrustModelError):
            RebalancePolicy(threshold=1.0)
        with pytest.raises(TrustModelError):
            RebalancePolicy(max_shards=0)
        with pytest.raises(TrustModelError):
            RebalancePolicy(split_rows=1)
        with pytest.raises(TrustModelError):
            RebalancePolicy(min_shard_rows=1)
        with pytest.raises(TrustModelError):
            RebalancePolicy(check_every=0)

    def test_rebalance_requires_splittable_router(self):
        with pytest.raises(TrustModelError):
            ShardedBackend(2, router="hash", rebalance=RebalancePolicy())

    def test_rebalance_rejects_non_policy(self):
        with pytest.raises(TrustModelError):
            ShardedBackend(2, router="range", rebalance="auto")

    def test_create_backend_wraps_single_shard_for_rebalance(self):
        backend = create_backend(
            "complaint", shards=1, router="ring", rebalance=RebalancePolicy()
        )
        assert isinstance(backend, ShardedBackend)
        assert backend.num_shards == 1

    @pytest.mark.parametrize("metric_mode", METRIC_MODES)
    def test_auto_splits_are_score_invisible(self, metric_mode):
        peers, observations = _observation_stream(n_observations=600, n_peers=80)
        plain = create_backend("complaint", metric_mode=metric_mode)
        auto = create_backend(
            "complaint",
            metric_mode=metric_mode,
            shards=1,
            router="ring",
            rebalance=RebalancePolicy(
                threshold=1.5, split_rows=20, min_shard_rows=4, max_shards=12
            ),
        )
        for start in range(0, len(observations), 40):
            batch = observations[start:start + 40]
            plain.update_many(batch)
            auto.update_many(batch)
            np.testing.assert_array_equal(
                plain.scores_for(peers), auto.scores_for(peers)
            )
        assert auto.rebalance_events, "the policy should have forced splits"
        assert auto.num_shards > 1
        assert auto.num_shards <= 12
        np.testing.assert_array_equal(
            plain.trust_decisions(peers), auto.trust_decisions(peers)
        )

    def test_growth_from_single_shard_respects_capacity_bound(self):
        policy = RebalancePolicy(
            threshold=2.0, split_rows=16, min_shard_rows=4, max_shards=8
        )
        auto = ShardedBackend(1, router="range", rebalance=policy)
        observations = [
            TrustObservation("obs", f"subject-{index:04d}", False,
                             timestamp=float(index))
            for index in range(400)
        ]
        for start in range(0, len(observations), 25):
            auto.update_many(observations[start:start + 25])
        assert auto.num_shards > 1
        rows = auto.shard_row_counts()
        # Every split-eligible shard ended below the policy bounds (or the
        # shard cap was reached).
        if auto.num_shards < policy.max_shards:
            ideal = rows.sum() / auto.num_shards
            assert rows.max() <= max(policy.split_rows,
                                     policy.threshold * ideal,
                                     policy.min_shard_rows)

    def test_skew_trigger_balances_working_set(self):
        # Ring routing with one point per shard starts lopsided by design;
        # the skew trigger must drive the max share down to threshold/N.
        policy = RebalancePolicy(
            threshold=1.5, split_rows=None, min_shard_rows=8, max_shards=16,
            check_every=1
        )
        # Four ring points put ~43% of the key space on one shard (1.74x
        # the ideal quarter), so the skew trigger has real work to do.
        auto = ShardedBackend(4, router="ring", rebalance=policy)
        observations = [
            TrustObservation("obs", f"member-{index:05d}", index % 3 != 0,
                             timestamp=float(index), files_complaint=True)
            for index in range(1500)
        ]
        for start in range(0, len(observations), 100):
            auto.update_many(observations[start:start + 100])
        rows = auto.shard_row_counts()
        share = rows.max() / rows.sum()
        assert auto.rebalance_events
        assert share <= 2.0 / auto.num_shards

    def test_restore_does_not_trigger_splits(self):
        source = ShardedBackend(4, router="range")
        _, observations = _observation_stream(seed=5)
        source.update_many(observations)
        policy = RebalancePolicy(threshold=1.05, min_shard_rows=2, max_shards=32)
        target = ShardedBackend(2, router="range", rebalance=policy)
        target.restore(source.snapshot())
        assert target.rebalance_events == ()
        assert target.num_shards == 2

    def test_failed_split_rolls_the_router_back(self, monkeypatch):
        """A redistribution failure must not leave a phantom shard behind."""
        import repro.trust.sharding as sharding_module

        peers, observations = _observation_stream()
        sharded = ShardedBackend(2, router="range")
        sharded.update_many(observations)
        expected = sharded.scores_for(peers)

        def explode(*args, **kwargs):
            raise RuntimeError("successor construction failed")

        monkeypatch.setattr(sharding_module, "create_backend", explode)
        with pytest.raises(RuntimeError):
            sharded.split_shard(0)
        monkeypatch.undo()
        # Router and shard table agree, routing is intact, and the backend
        # keeps answering and learning exactly as before the attempt.
        assert sharded.num_shards == 2
        assert sharded.router.num_shards == 2
        np.testing.assert_array_equal(expected, sharded.scores_for(peers))
        sharded.update_many(observations[:20])
        assert sharded.split_shard(0) == 2  # and a later split still works

    def test_unsplittable_signal_is_a_distinct_exception(self):
        from repro.trust import ShardSplitError

        router = RangeShardRouter(2, state=np.array([[0, 1, 2], [0, 1, 0]],
                                                    dtype=np.int64))
        with pytest.raises(ShardSplitError):
            router.split(1)  # owns only the width-1 interval [1, 2)
        assert issubclass(ShardSplitError, TrustModelError)

    @pytest.mark.parametrize("metric_mode", METRIC_MODES)
    def test_restore_is_not_a_load_signal(self, metric_mode):
        # A resharded restore re-files evidence internally (the whole
        # complaint log goes through record_complaints); none of that may
        # read as routed update traffic.
        source = ShardedBackend(4, router="range", metric_mode=metric_mode)
        _, observations = _observation_stream(seed=9)
        source.update_many(observations)
        target = ShardedBackend(2, router="ring")
        target.restore(source.snapshot())
        assert target.metric_mode == metric_mode
        assert target.shard_update_counts == (0, 0)
