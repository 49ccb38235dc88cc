"""Pickle-safety of router state and per-shard snapshot manifests.

The worker transport serialises three things it never re-validates: the
router boundary state inside :class:`HomeRowFilter` restriction predicates,
per-shard ``shard-NNNN/*`` manifest entries streamed through the parent,
and whole manifests replayed on crash recovery.  These property tests pin
the precondition the transport silently relies on: every router kind (in
every post-split uneven layout) and every manifest survives
``pickle.dumps``/``loads`` unchanged.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trust import (
    ROUTER_NAMES,
    HomeRowFilter,
    TrustObservation,
    create_backend,
    create_router,
)
from repro.trust.backend import ComplaintTrustBackend

SAMPLE_IDS = [f"peer-{index:03d}" for index in range(64)]


def _round_trip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _apply_splits(router, splits):
    """Drive a router through a split sequence, skewing the layout."""
    for choice in splits:
        router.split(choice % router.num_shards)
    return router


@settings(deadline=None, max_examples=40)
@given(
    name=st.sampled_from(ROUTER_NAMES),
    num_shards=st.integers(min_value=1, max_value=8),
    splits=st.lists(st.integers(min_value=0, max_value=63), max_size=5),
)
def test_router_pickle_round_trip(name, num_shards, splits):
    router = create_router(name, num_shards)
    if router.supports_split:
        _apply_splits(router, splits)
    copy = _round_trip(router)
    assert copy.num_shards == router.num_shards
    assert copy.same_layout(router)
    # Layout equality must mean assignment equality, key by key.
    for peer_id in SAMPLE_IDS:
        assert copy.shard_of(peer_id) == router.shard_of(peer_id)


@settings(deadline=None, max_examples=40)
@given(
    name=st.sampled_from(("range", "ring")),
    num_shards=st.integers(min_value=1, max_value=6),
    splits=st.lists(
        st.integers(min_value=0, max_value=63), min_size=1, max_size=5
    ),
)
def test_router_state_reconstructs_split_layouts(name, num_shards, splits):
    router = _apply_splits(create_router(name, num_shards), splits)
    state = _round_trip(router.state())
    rebuilt = create_router(name, router.num_shards, state=state)
    assert rebuilt.same_layout(router)
    for peer_id in SAMPLE_IDS:
        assert rebuilt.shard_of(peer_id) == router.shard_of(peer_id)


@settings(deadline=None, max_examples=25)
@given(
    name=st.sampled_from(ROUTER_NAMES),
    num_shards=st.integers(min_value=1, max_value=6),
    splits=st.lists(st.integers(min_value=0, max_value=63), max_size=4),
    home=st.integers(min_value=0, max_value=63),
)
def test_home_row_filter_pickle_round_trip(name, num_shards, splits, home):
    router = create_router(name, num_shards)
    if router.supports_split:
        _apply_splits(router, splits)
    row_filter = HomeRowFilter(
        name, router.num_shards, router.state(), home % router.num_shards
    )
    copy = _round_trip(row_filter)
    assert copy.home == row_filter.home
    for peer_id in SAMPLE_IDS:
        assert copy(peer_id) == row_filter(peer_id)


def _observations(seed, count=200):
    rng = np.random.default_rng(seed)
    return [
        TrustObservation(
            observer_id=str(rng.choice(SAMPLE_IDS)),
            subject_id=str(rng.choice(SAMPLE_IDS)),
            honest=bool(rng.integers(2)),
            timestamp=float(tick),
            files_complaint=bool(rng.integers(2))
            if rng.integers(3) == 0
            else None,
        )
        for tick in range(count)
    ]


@pytest.mark.parametrize("metric_mode", ComplaintTrustBackend.METRIC_MODES)
@pytest.mark.parametrize("split_once", [False, True])
def test_manifest_pickle_round_trip(split_once, metric_mode):
    """Every manifest entry — including post-split uneven layouts —
    survives the wire unchanged, and the pickled manifest restores into an
    identical backend."""
    backend = create_backend(
        "complaint", shards=3, router="range", metric_mode=metric_mode
    )
    backend.update_many(_observations(5))
    if split_once:
        backend.split_shard(0)
    manifest = dict(backend.snapshot_items())
    copy = _round_trip(manifest)
    assert set(copy) == set(manifest)
    for key, value in manifest.items():
        restored = copy[key]
        assert np.array_equal(
            np.asarray(restored), np.asarray(value)
        ), key
        assert np.asarray(restored).dtype == np.asarray(value).dtype, key
    replica = create_backend(
        "complaint", shards=backend.num_shards, router="range"
    )
    replica.restore(copy)
    assert replica.metric_mode == metric_mode
    assert np.array_equal(
        replica.scores_for(SAMPLE_IDS), backend.scores_for(SAMPLE_IDS)
    )
