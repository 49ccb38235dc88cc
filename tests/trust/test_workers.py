"""Unit tests for the worker-distributed sharded complaint store.

Most tests run on the loopback transport: same protocol, same pickled
wire format, no forking — and deterministic.  A small set exercises real
worker processes end to end (spawn, query, stream, shutdown).
"""

import numpy as np
import pytest

from repro.exceptions import TrustModelError
from repro.trust import (
    RebalancePolicy,
    ShardedBackend,
    TrustObservation,
    WorkerCrashError,
    WorkerShardedBackend,
    create_backend,
)
from repro.trust.backend import ComplaintTrustBackend

PEERS = [f"peer-{index:03d}" for index in range(80)]
METRIC_MODES = ComplaintTrustBackend.METRIC_MODES


def observations(seed, count=300, complaints=True):
    rng = np.random.default_rng(seed)
    return [
        TrustObservation(
            observer_id=str(rng.choice(PEERS)),
            subject_id=str(rng.choice(PEERS)),
            honest=bool(rng.integers(2)),
            timestamp=float(tick),
            files_complaint=(
                bool(rng.integers(2))
                if complaints and rng.integers(3) == 0
                else None
            ),
        )
        for tick in range(count)
    ]


def loopback(**params):
    return create_backend("complaint", workers="loopback", **params)


@pytest.mark.parametrize("metric_mode", METRIC_MODES)
def test_loopback_scores_bit_identical(metric_mode):
    obs = observations(1)
    reference = create_backend("complaint", shards=4, metric_mode=metric_mode)
    reference.update_many(obs)
    with loopback(shards=4, metric_mode=metric_mode) as backend:
        backend.update_many(obs)
        backend.flush()
        assert np.array_equal(
            backend.scores_for(PEERS), reference.scores_for(PEERS)
        )
        assert np.array_equal(
            backend.trust_decisions(PEERS), reference.trust_decisions(PEERS)
        )
        assert backend.known_subjects() == reference.known_subjects()
        assert len(backend) == len(reference)
        assert backend.reference_metric() == reference.reference_metric()
        assert np.array_equal(
            backend.shard_row_counts(), reference.shard_row_counts()
        )


def test_worker_backend_reads_only_through_scatter_gather():
    """The worker layer owns one read method; the rest is inherited."""
    for read in (
        "scores_for",
        "trust_decisions",
        "aggregate_witness_reports",
        "known_subjects",
        "reference_metric",
        "shard_row_counts",
        "counts",
        "all_complaints",
        "__len__",
    ):
        assert read not in vars(WorkerShardedBackend), read
    assert "_scatter_gather" in vars(WorkerShardedBackend)


@pytest.mark.parametrize("metric_mode", METRIC_MODES)
def test_loopback_witness_aggregation_matches(metric_mode):
    obs = observations(2)
    reference = create_backend("complaint", shards=3, metric_mode=metric_mode)
    reference.update_many(obs)
    rng = np.random.default_rng(3)
    matrix = np.abs(rng.normal(size=(4, len(PEERS), 2)))
    discounts = np.full(4, 0.5)
    with loopback(shards=3, metric_mode=metric_mode) as backend:
        backend.update_many(obs)
        assert np.array_equal(
            backend.aggregate_witness_reports(PEERS, matrix, discounts),
            reference.aggregate_witness_reports(PEERS, matrix, discounts),
        )


@pytest.mark.parametrize("metric_mode", METRIC_MODES)
def test_complaint_store_protocol_over_workers(metric_mode):
    obs = observations(4)
    reference = create_backend("complaint", shards=4, metric_mode=metric_mode)
    reference.update_many(obs)
    with loopback(shards=4, metric_mode=metric_mode) as backend:
        backend.update_many(obs)
        assert backend.all_complaints() == reference.all_complaints()
        for peer in PEERS[:10]:
            assert backend.counts(peer) == reference.counts(peer)
            assert backend.complaints_about(peer) == (
                reference.complaints_about(peer)
            )
        assert backend.tolerance_factor == reference.tolerance_factor
        assert backend.metric_mode == reference.metric_mode == metric_mode


def test_rebalance_split_is_worker_handoff():
    policy = RebalancePolicy(split_rows=24, max_shards=6)
    obs = observations(5)
    reference = create_backend(
        "complaint", shards=2, router="range", rebalance=policy
    )
    reference.update_many(obs)
    assert reference.num_shards > 2  # the stream actually forced splits
    with loopback(shards=2, router="range", rebalance=policy) as backend:
        backend.update_many(obs)
        assert backend.num_shards == reference.num_shards
        assert np.array_equal(
            backend.scores_for(PEERS), reference.scores_for(PEERS)
        )
        # Retired pre-split workers were reaped, one live worker per shard.
        assert len(backend._proxy_registry) == backend.num_shards


def test_streaming_snapshot_interops_with_in_process_backend():
    obs = observations(6)
    with loopback(shards=3) as backend:
        backend.update_many(obs)
        expected = backend.scores_for(PEERS)
        replica = ShardedBackend(3)
        replica.restore_items(backend.snapshot_items())
        assert np.array_equal(replica.scores_for(PEERS), expected)
        # And the reverse direction: in-process snapshot into workers.
        with loopback(shards=3) as second:
            second.restore_items(replica.snapshot_items())
            assert np.array_equal(second.scores_for(PEERS), expected)


def test_worker_error_surfaces_and_backend_stays_usable():
    with loopback(shards=2) as backend:
        backend.update_many(observations(7))
        with pytest.raises(Exception):
            backend.restore({"backend": np.array("nonsense")})
        # The failed call must not desync the reply channel.
        assert len(backend.scores_for(PEERS)) == len(PEERS)


def test_worker_error_carries_remote_traceback():
    """A worker-raised error arrives chained to its worker-side traceback.

    Pickling drops ``__traceback__``, so the worker stamps the formatted
    traceback onto the exception and the parent re-raises it chained
    ``from RemoteWorkerTraceback`` — the failure's origin stays debuggable
    across the process boundary.
    """
    from repro.trust.workers import RemoteWorkerTraceback

    with loopback(shards=2) as backend:
        proxy = backend.shards[0]
        with pytest.raises(AttributeError) as excinfo:
            proxy.call("no_such_method")
        cause = excinfo.value.__cause__
        assert isinstance(cause, RemoteWorkerTraceback)
        assert "Traceback" in str(cause)
        # The channel stays usable after the surfaced error.
        assert len(backend.scores_for(PEERS)) == len(PEERS)


def test_write_error_held_until_next_call():
    with loopback(shards=1) as backend:
        proxy = backend.shards[0]
        proxy._write("bogus-method", ())
        with pytest.raises(TrustModelError):
            backend.flush()
        # Surfacing the error clears it; the worker keeps serving.
        backend.flush()


def test_dead_worker_raises_without_recovery():
    backend = loopback(shards=2)
    backend.shards[0].stop()
    with pytest.raises(WorkerCrashError):
        backend.scores_for(PEERS)
    backend.close()


def test_close_is_idempotent_and_stops_workers():
    backend = loopback(shards=2)
    proxies = list(backend.shards)
    backend.close()
    assert backend.closed
    assert all(proxy.dead for proxy in proxies)
    backend.close()  # second close is a no-op


def test_create_backend_wiring():
    with create_backend("complaint", shards=2, workers="loopback") as backend:
        assert isinstance(backend, WorkerShardedBackend)
        assert backend.transport_kind == "loopback"
        assert backend.name == "sharded"  # snapshot-interop contract
        assert backend.kind == "complaint"
    with pytest.raises(TrustModelError):
        create_backend("complaint", shards=2, recovery=True)  # needs workers


def test_process_transport_end_to_end():
    obs = observations(8)
    reference = create_backend("complaint", shards=2)
    reference.update_many(obs)
    with create_backend("complaint", shards=2, workers=True) as backend:
        assert backend.transport_kind == "process"
        backend.update_many(obs)
        backend.flush()
        assert np.array_equal(
            backend.scores_for(PEERS), reference.scores_for(PEERS)
        )
        snapshot = dict(backend.snapshot_items())
    replica = ShardedBackend(2)
    replica.restore(snapshot)
    assert np.array_equal(
        replica.scores_for(PEERS), reference.scores_for(PEERS)
    )


@pytest.mark.parametrize("metric_mode", METRIC_MODES)
def test_compact_layout_is_exact(metric_mode):
    # Complaint counts are small integers, exact in float32, so the compact
    # worker store matches both compact and default in-process stores.
    obs = observations(9)
    reference = create_backend("complaint", shards=4, metric_mode=metric_mode)
    reference.update_many(obs)
    compact = create_backend(
        "complaint", shards=4, compact=True, metric_mode=metric_mode
    )
    compact.update_many(obs)
    with loopback(shards=4, compact=True, metric_mode=metric_mode) as backend:
        backend.update_many(obs)
        scores = backend.scores_for(PEERS)
        assert np.array_equal(scores, compact.scores_for(PEERS))
        assert np.array_equal(scores, reference.scores_for(PEERS))
