"""Sharded-versus-unsharded equivalence for the complaint store.

The contract of :class:`~repro.trust.sharding.ShardedBackend` is that
partitioning the peer-id space is invisible: updates, score queries,
trust decisions, witness aggregation and snapshot round-trips (including
re-sharding onto a different shard count) all produce *bit-identical*
results to one plain complaint backend.  These tests pin that contract at
1, 3 and 8 shards, all three router strategies (``hash``, ``range`` and
the consistent-hash ``ring``) and all three metric modes (``product``,
``received`` and ``balanced``), plus the empty-shard and single-peer-shard
edges, the manifest format, and the guard that only the complaint kind is
sharded.  Live splitting and rebalancing have their own contract in
``test_rebalance.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TrustModelError
from repro.trust import (
    ROUTER_NAMES,
    HashShardRouter,
    RangeShardRouter,
    RebalancePolicy,
    ShardedBackend,
    TrustObservation,
    create_backend,
    create_router,
)
from repro.trust.backend import ComplaintTrustBackend
from repro.trust.evidence import Complaint

SHARD_COUNTS = (1, 3, 8)
METRIC_MODES = ComplaintTrustBackend.METRIC_MODES


def _observation_stream(n_observations=240, n_peers=24, seed=11):
    """A deterministic evidence stream with honest, dishonest and spurious-
    complaint observations."""
    rng = random.Random(seed)
    peers = [f"peer-{index:03d}" for index in range(n_peers)]
    observations = []
    for index in range(n_observations):
        observer, subject = rng.sample(peers, 2)
        honest = rng.random() < 0.6
        observations.append(
            TrustObservation(
                observer_id=observer,
                subject_id=subject,
                honest=honest,
                timestamp=float(index // 20),
                weight=rng.uniform(0.5, 4.0),
                files_complaint=True if honest and rng.random() < 0.15 else None,
            )
        )
    return peers, observations


def _feed(backend, observations, batch=30):
    for start in range(0, len(observations), batch):
        backend.update_many(observations[start:start + batch])


def _query_ids(peers):
    # Mix known subjects, strangers and duplicates (gather must preserve
    # caller order, not just partition order).
    return list(peers) + ["stranger-a", "stranger-b", peers[0], peers[-1]]


@pytest.mark.parametrize("metric_mode", METRIC_MODES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("router", ROUTER_NAMES)
class TestShardedEquivalence:
    def test_scores_and_decisions_bit_identical(
        self, shards, router, metric_mode
    ):
        peers, observations = _observation_stream()
        plain = create_backend("complaint", metric_mode=metric_mode)
        sharded = ShardedBackend(
            shards, router=router, metric_mode=metric_mode
        )
        _feed(plain, observations)
        _feed(sharded, observations)
        queries = _query_ids(peers)
        for now in (None, 6.0, 50.0):
            np.testing.assert_array_equal(
                plain.scores_for(queries, now=now),
                sharded.scores_for(queries, now=now),
            )
        np.testing.assert_array_equal(
            plain.trust_decisions(queries), sharded.trust_decisions(queries)
        )
        assert sorted(plain.known_subjects()) == sorted(sharded.known_subjects())
        assert plain.scores_snapshot() == sharded.scores_snapshot()

    def test_witness_aggregation_bit_identical(
        self, shards, router, metric_mode
    ):
        peers, observations = _observation_stream()
        plain = create_backend("complaint", metric_mode=metric_mode)
        sharded = ShardedBackend(
            shards, router=router, metric_mode=metric_mode
        )
        _feed(plain, observations)
        _feed(sharded, observations)
        queries = _query_ids(peers)
        generator = np.random.default_rng(5)
        matrix = generator.integers(
            0, 6, size=(4, len(queries), 2)
        ).astype(np.float64)
        discounts = generator.uniform(0.0, 1.0, size=4)
        np.testing.assert_array_equal(
            plain.aggregate_witness_reports(queries, matrix, discounts),
            sharded.aggregate_witness_reports(queries, matrix, discounts),
        )
        # The empty report set degrades to scores_for on both sides.
        empty = np.zeros((0, len(queries), 2))
        np.testing.assert_array_equal(
            plain.aggregate_witness_reports(queries, empty, np.zeros(0)),
            sharded.aggregate_witness_reports(queries, empty, np.zeros(0)),
        )

    def test_snapshot_round_trip(
        self, shards, router, metric_mode
    ):
        peers, observations = _observation_stream()
        sharded = ShardedBackend(
            shards, router=router, metric_mode=metric_mode
        )
        _feed(sharded, observations)
        state = sharded.snapshot()
        assert all(isinstance(value, np.ndarray) for value in state.values())
        assert len(state["manifest"]) == shards
        assert int(state["num_shards"][0]) == shards

        restored = ShardedBackend(shards, router=router)
        restored.restore(state)
        assert restored.metric_mode == metric_mode
        queries = _query_ids(peers)
        np.testing.assert_array_equal(
            sharded.scores_for(queries), restored.scores_for(queries)
        )
        # A restored backend keeps learning identically.
        update = TrustObservation(peers[1], peers[0], False, timestamp=99.0)
        sharded.update(update)
        restored.update(update)
        np.testing.assert_array_equal(
            sharded.scores_for(queries), restored.scores_for(queries)
        )

    def test_restore_into_different_shard_count(
        self, shards, router, metric_mode
    ):
        """Re-sharding via the manifest must not drift any score."""
        peers, observations = _observation_stream()
        sharded = ShardedBackend(
            shards, router=router, metric_mode=metric_mode
        )
        _feed(sharded, observations)
        state = sharded.snapshot()
        queries = _query_ids(peers)
        expected = sharded.scores_for(queries)
        for new_shards in (1, 2, 5):
            resharded = ShardedBackend(new_shards, router=router)
            resharded.restore(state)
            assert resharded.metric_mode == metric_mode
            np.testing.assert_array_equal(expected, resharded.scores_for(queries))
            np.testing.assert_array_equal(
                sharded.trust_decisions(queries),
                resharded.trust_decisions(queries),
            )


class TestEdges:
    @pytest.mark.parametrize("metric_mode", METRIC_MODES)
    def test_mostly_empty_shards(self, metric_mode):
        """More shards than peers: empty shards answer and snapshot cleanly."""
        sharded = ShardedBackend(8, metric_mode=metric_mode)
        observations = [
            TrustObservation("a", "b", False, timestamp=1.0),
            TrustObservation("b", "c", True, timestamp=2.0),
        ]
        sharded.update_many(observations)
        occupied = {sharded.shard_index_of(peer) for peer in ("a", "b", "c")}
        assert len(occupied) < 8
        scores = sharded.scores_for(("a", "b", "c", "nobody"))
        assert scores.shape == (4,)
        restored = ShardedBackend(8)
        restored.restore(sharded.snapshot())
        np.testing.assert_array_equal(
            scores, restored.scores_for(("a", "b", "c", "nobody"))
        )

    @pytest.mark.parametrize("metric_mode", METRIC_MODES)
    def test_single_peer_per_shard(self, metric_mode):
        plain = create_backend("complaint", metric_mode=metric_mode)
        sharded = ShardedBackend(2, metric_mode=metric_mode)
        observations = [
            TrustObservation("solo-1", "solo-2", False, timestamp=1.0),
            TrustObservation("solo-2", "solo-1", True, timestamp=2.0),
        ]
        plain.update_many(observations)
        sharded.update_many(observations)
        np.testing.assert_array_equal(
            plain.scores_for(("solo-1", "solo-2")),
            sharded.scores_for(("solo-1", "solo-2")),
        )

    def test_empty_query_batches(self):
        sharded = ShardedBackend(3)
        assert sharded.scores_for(()).shape == (0,)
        assert sharded.trust_decisions(()).shape == (0,)
        sharded.update_many(())


class TestRouters:
    def test_routers_are_deterministic_and_in_range(self):
        for name in ROUTER_NAMES:
            router = create_router(name, 5)
            again = create_router(name, 5)
            for index in range(200):
                shard = router.shard_of(f"peer-{index}")
                assert 0 <= shard < 5
                assert shard == again.shard_of(f"peer-{index}")

    def test_range_router_partitions_key_space_contiguously(self):
        from repro.trust.sharding import shard_key

        router = RangeShardRouter(4)
        keys_by_shard = {}
        for index in range(400):
            peer = f"peer-{index}"
            keys_by_shard.setdefault(router.shard_of(peer), []).append(
                shard_key(peer)
            )
        assert len(keys_by_shard) == 4
        # Contiguity: every shard's key interval is disjoint and ordered.
        bounds = sorted(
            (min(keys), max(keys), shard)
            for shard, keys in keys_by_shard.items()
        )
        for (_, high, _), (low, _, _) in zip(bounds, bounds[1:]):
            assert high < low

    def test_unknown_router_rejected(self):
        with pytest.raises(TrustModelError):
            create_router("alphabetical", 4)

    def test_router_shard_count_mismatch_rejected(self):
        with pytest.raises(TrustModelError):
            ShardedBackend(4, router=HashShardRouter(3))


class TestFactoryAndGuards:
    def test_create_backend_shards_knob(self):
        sharded = create_backend("complaint", shards=4, metric_mode="balanced")
        assert isinstance(sharded, ShardedBackend)
        assert sharded.num_shards == 4
        assert sharded.kind == "complaint"
        assert sharded.metric_mode == "balanced"
        assert isinstance(
            create_backend("complaint", shards=1), ComplaintTrustBackend
        )
        with pytest.raises(TrustModelError):
            create_backend("complaint", shards=0)

    @pytest.mark.parametrize("kind", ("beta", "decay", "scalar-beta"))
    @pytest.mark.parametrize(
        "knobs",
        (
            {"shards": 2},
            {"rebalance": RebalancePolicy()},
        ),
        ids=("shards", "rebalance"),
    )
    def test_only_the_complaint_kind_is_sharded(self, kind, knobs):
        with pytest.raises(TrustModelError, match=repr(kind)):
            create_backend(kind, **knobs)
        # The same kinds stay available unsharded.
        assert not isinstance(create_backend(kind), ShardedBackend)

    @pytest.mark.parametrize("knob", ({"workers": 2}, {"recovery": True}),
                             ids=("workers", "recovery"))
    @pytest.mark.parametrize("shards", (1, 2))
    def test_unknown_deployment_knobs_are_not_swallowed(self, shards, knob):
        # Every shard is built from the forwarded params, so a knob no
        # backend accepts fails loudly instead of being silently dropped.
        with pytest.raises(TypeError, match=next(iter(knob))):
            create_backend("complaint", shards=shards, **knob)

    def test_nested_sharding_rejected(self):
        with pytest.raises(TrustModelError):
            ShardedBackend(2, shards=2)

    def test_shared_store_behind_shards_rejected(self):
        # Every shard owns its complaint log; no backend takes a store.
        from repro.trust.complaint import LocalComplaintStore

        with pytest.raises(TypeError):
            create_backend("complaint", shards=4, store=LocalComplaintStore())

    @pytest.mark.parametrize("kind", ("beta", "decay"))
    def test_non_complaint_manifest_rejected(self, kind):
        sharded = ShardedBackend(2)
        sharded.update(TrustObservation("a", "b", False))
        state = sharded.snapshot()
        state["kind"] = np.array(kind)
        target = ShardedBackend(2)
        with pytest.raises(TrustModelError, match=repr(kind)):
            target.restore(state)
        with pytest.raises(TrustModelError, match=repr(kind)):
            target.restore_items(state.items())
        # The rejected restores changed nothing.
        assert target.known_subjects() == ()


def test_describe_config_pins_the_store_line():
    """The run summary's Backend line, for a plain and a rebalanced store."""
    assert create_backend("complaint").describe_config() == (
        "complaint, unsharded, rebalance off"
    )
    rebalanced = create_backend(
        "complaint",
        shards=2,
        router="ring",
        rebalance=RebalancePolicy(threshold=1.5, max_shards=8),
    )
    assert rebalanced.describe_config() == (
        "complaint, 2 shards, ring router, rebalance auto@1.5 (max 8)"
    )


class TestManifestFormat:
    """The sharded complaint manifest is a stable on-disk format."""

    SHARD_KEYS = {
        "backend": "<U9",
        "peer_ids": "object",
        "config": "float64",
        "metric_mode": "<U7",
        "received": "float64",
        "filed": "float64",
        "in_store": "bool",
        "complainants": "object",
        "accused": "object",
        "timestamps": "float64",
    }

    def test_key_set_and_dtypes_are_pinned(self):
        sharded = ShardedBackend(2, router="range")
        _feed(sharded, _observation_stream()[1])
        state = sharded.snapshot()
        expected = {
            "backend": "<U7",
            "kind": "<U9",
            "router": "<U5",
            "num_shards": "int64",
            "router_state": "int64",
            "manifest": "object",
        }
        for prefix in ("shard-0000", "shard-0001"):
            for key, dtype in self.SHARD_KEYS.items():
                expected[f"{prefix}/{key}"] = dtype
        assert {key: str(value.dtype) for key, value in state.items()} == expected
        assert str(state["backend"]) == "sharded"
        assert str(state["kind"]) == "complaint"
        assert list(state["manifest"]) == ["shard-0000", "shard-0001"]

    def test_handwritten_manifest_restores(self):
        """A manifest spelled out key by key (as older runs wrote it)."""

        def shard(peers, received, filed, log):
            return {
                "backend": np.array("complaint"),
                "peer_ids": np.array(peers, dtype=object),
                "config": np.array([5.0, 3.0]),
                "metric_mode": np.array("product"),
                "received": np.array(received, dtype=np.float64),
                "filed": np.array(filed, dtype=np.float64),
                "in_store": np.ones(len(peers), dtype=bool),
                "complainants": np.array([c for c, _, _ in log], dtype=object),
                "accused": np.array([a for _, a, _ in log], dtype=object),
                "timestamps": np.array([t for _, _, t in log]),
            }

        router = create_router("hash", 2)
        log = [("victim", "cheat", 1.0), ("cheat", "victim", 2.0),
               ("victim", "cheat", 3.0)]
        homes = {peer: router.shard_of(peer) for peer in ("victim", "cheat")}
        state = {
            "backend": np.array("sharded"),
            "kind": np.array("complaint"),
            "router": np.array("hash"),
            "num_shards": np.array([2]),
            "manifest": np.array(["shard-0000", "shard-0001"], dtype=object),
        }
        counts = {"victim": (1.0, 2.0), "cheat": (2.0, 1.0)}
        for index in range(2):
            peers = [peer for peer, home in homes.items() if home == index]
            entries = shard(
                peers,
                [counts[peer][0] for peer in peers],
                [counts[peer][1] for peer in peers],
                [entry for entry in log if index in (homes[entry[0]], homes[entry[1]])],
            )
            for key, value in entries.items():
                state[f"shard-{index:04d}/{key}"] = value
        plain = create_backend("complaint", tolerance_factor=5.0)
        for complainant, accused, timestamp in log:
            plain.file_complaint(Complaint(complainant, accused, timestamp))
        for target_shards in (2, 3):
            restored = ShardedBackend(target_shards)
            assert restored.tolerance_factor == 4.0
            restored.restore(state)
            # The manifest's scoring configuration replaces the default.
            assert restored.tolerance_factor == 5.0
            for peer in ("victim", "cheat"):
                assert restored.counts(peer) == plain.counts(peer)
            np.testing.assert_array_equal(
                restored.scores_for(["victim", "cheat", "nobody"]),
                plain.scores_for(["victim", "cheat", "nobody"]),
            )


class TestShardedComplaintStore:
    """A sharded complaint backend is a drop-in community complaint store."""

    def test_complaint_store_protocol(self):
        sharded = ShardedBackend(3, metric_mode="balanced")
        sharded.file_complaint(Complaint("victim", "cheat", timestamp=1.0))
        sharded.file_complaint(Complaint("victim", "cheat", timestamp=1.0))
        sharded.file_complaint(Complaint("other", "cheat", timestamp=2.0))
        complaints = sharded.all_complaints()
        assert [c.accused_id for c in complaints] == ["cheat"] * 3
        assert [c.complainant_id for c in complaints].count("victim") == 2
        assert set(sharded.known_subjects()) == {"victim", "cheat", "other"}
        assert sharded.counts("cheat") == (3, 0)
        assert sharded.metric_mode == "balanced"
        assert sharded.tolerance_factor == 4.0

    def test_all_complaints_deduplicates_cross_shard_copies(self):
        plain = ComplaintTrustBackend()
        sharded = ShardedBackend(4)
        rng = random.Random(3)
        peers = [f"agent-{index}" for index in range(12)]
        filed = []
        for index in range(60):
            complainant, accused = rng.sample(peers, 2)
            complaint = Complaint(complainant, accused, timestamp=float(index))
            filed.append(complaint)
            plain.file_complaint(complaint)
            sharded.file_complaint(complaint)
        # Identical duplicate filings are legitimate evidence: file one twice.
        duplicate = filed[0]
        plain.file_complaint(duplicate)
        sharded.file_complaint(duplicate)
        assert sorted(
            (c.complainant_id, c.accused_id, c.timestamp)
            for c in sharded.all_complaints()
        ) == sorted(
            (c.complainant_id, c.accused_id, c.timestamp)
            for c in plain.all_complaints()
        )

    @pytest.mark.parametrize("metric_mode", METRIC_MODES)
    def test_global_reference_matches_unsharded(self, metric_mode):
        peers, observations = _observation_stream(seed=23)
        plain = create_backend("complaint", metric_mode=metric_mode)
        sharded = ShardedBackend(5, metric_mode=metric_mode)
        _feed(plain, observations)
        _feed(sharded, observations)
        assert plain.reference_metric() == sharded.reference_metric()


@settings(deadline=None, max_examples=25)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
            st.booleans(),
            st.floats(min_value=0.1, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=60,
    ),
    shards=st.integers(min_value=2, max_value=6),
)
def test_property_sharded_complaint_matches_plain(data, shards):
    """Any observation stream: sharded scores equal plain bit for bit."""
    observations = [
        TrustObservation(
            observer_id=f"w-{observer}",
            subject_id=f"p-{subject}",
            honest=honest,
            timestamp=float(index),
            weight=weight,
        )
        for index, (observer, subject, honest, weight) in enumerate(data)
    ]
    plain = create_backend("complaint")
    sharded = ShardedBackend(shards)
    plain.update_many(observations)
    sharded.update_many(observations)
    queries = [f"p-{index}" for index in range(10)] + ["w-0"]
    np.testing.assert_array_equal(
        plain.scores_for(queries), sharded.scores_for(queries)
    )
    np.testing.assert_array_equal(
        plain.trust_decisions(queries), sharded.trust_decisions(queries)
    )
