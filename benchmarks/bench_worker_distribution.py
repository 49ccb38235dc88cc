"""Worker-distributed complaint store — throughput and crash recovery.

The scaling claim of the worker layer: hosting each shard of the shared
complaint store in its own process lifts the GIL's one-core cap, so an
update+query stream against a ``WorkerShardedBackend`` at 4 workers should
sustain at least **1.5x** the end-to-end throughput of the in-process
4-shard store on the same 100k-peer flash-crowd stream — while staying
bit-identical in every score it returns.  The recovery claim: a worker
SIGKILLed mid-run is healed from its last checkpoint manifest plus the
parent's journal backfill, restoring ``effective_delivery_ratio`` to 1.0
and final scores bit-identical to a run that never crashed.

Scales:

* **full / default** — the 100k-peer flash-crowd stream; the >= 1.5x
  speedup bar is enforced when the machine actually has >= 4 cores
  (the measured ratio and its real verdict are always recorded; on
  smaller machines process workers cannot beat the GIL, so the bar is
  written with ``enforced: false``).
* **smoke** (``REPRO_BENCH_SMOKE=1``) — a scaled-down stream for CI;
  bit-identity and the kill-and-recover drill are still enforced, the
  speedup bar is recorded but never enforced (CI runners are small).

Every observation is filed by a random member of the open id space, so
complaints spread over every shard the way a community's filings do.

A hard watchdog (SIGALRM) aborts the whole module if the worker pool ever
deadlocks, so a hung pipe fails the job fast instead of hanging it.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.trust.backend import TrustObservation, create_backend

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

if SMOKE:
    NUM_PEERS = 5_000
    OBS_PER_TICK = 2_500
    QUERIES_PER_TICK = 1_000
    NUM_TICKS = 4
    HARD_TIMEOUT_SECONDS = 120
else:
    NUM_PEERS = 100_000
    OBS_PER_TICK = 25_000
    QUERIES_PER_TICK = 10_000
    NUM_TICKS = 6
    HARD_TIMEOUT_SECONDS = 600

WORKERS = 4
SEED = 23
MIN_SPEEDUP = 1.5
#: The speedup bar only means something when the workers can actually run
#: in parallel; below 4 cores the measured ratio is recorded, not enforced.
ENFORCE_SPEEDUP = (os.cpu_count() or 1) >= 4 and not SMOKE


class _WatchdogTimeout(RuntimeError):
    pass


def _alarm(signum, frame):  # pragma: no cover - only fires on deadlock
    raise _WatchdogTimeout(
        f"worker benchmark exceeded the {HARD_TIMEOUT_SECONDS}s watchdog "
        "(deadlocked worker pool?)"
    )


def _peer_name(index: int) -> str:
    return f"peer-{index:06d}"


def _tick_pool_size(tick: int) -> int:
    """Open id space at ``tick``: half the crowd up front, waves after."""
    base = NUM_PEERS // 2
    wave = (NUM_PEERS - base) // NUM_TICKS
    return min(NUM_PEERS, base + wave * (tick + 1))


def _tick_batch(rng: np.random.Generator, tick: int):
    pool = _tick_pool_size(tick)
    observers = rng.integers(0, pool, OBS_PER_TICK)
    subjects = rng.integers(0, pool, OBS_PER_TICK)
    honest = rng.random(OBS_PER_TICK) < 0.7
    return [
        TrustObservation(
            observer_id=_peer_name(observer),
            subject_id=_peer_name(subject),
            honest=bool(is_honest),
            timestamp=float(tick),
        )
        for observer, subject, is_honest in zip(
            observers.tolist(), subjects.tolist(), honest.tolist()
        )
    ]


def _query_sample(rng: np.random.Generator, tick: int):
    pool = _tick_pool_size(tick)
    return [
        _peer_name(index) for index in rng.integers(0, pool, QUERIES_PER_TICK)
    ]


def _drive(backend):
    """Ingest the same-seed flash-crowd stream; returns (seconds, scores).

    The clock stops only after ``flush()`` (when the backend has one): a
    worker scatter returns before the workers finish, so an unflushed
    timing would measure pipe writes, not applied work.
    """
    rng = np.random.default_rng(SEED)
    final_scores = None
    start = time.perf_counter()
    for tick in range(NUM_TICKS):
        backend.update_many(_tick_batch(rng, tick))
        final_scores = backend.scores_for(
            _query_sample(rng, tick), now=float(tick)
        )
    if hasattr(backend, "flush"):
        backend.flush()
    return time.perf_counter() - start, final_scores


def _throughput(seconds: float) -> float:
    return NUM_TICKS * (OBS_PER_TICK + QUERIES_PER_TICK) / seconds


def _recovery_drill():
    """SIGKILL one worker mid-stream, heal, compare against a clean run."""
    reference = create_backend("complaint", shards=WORKERS)
    rng = np.random.default_rng(SEED)
    batches = [_tick_batch(rng, tick) for tick in range(NUM_TICKS)]
    queries = _query_sample(rng, NUM_TICKS - 1)
    for batch in batches:
        reference.update_many(batch)
    reference_scores = reference.scores_for(queries)

    kill_tick = NUM_TICKS // 2
    with create_backend(
        "complaint", shards=WORKERS, workers=True, recovery=True
    ) as backend:
        for batch in batches[:kill_tick]:
            backend.update_many(batch)
        backend.flush()
        backend.checkpoint()
        victim = backend.shards[1]
        os.kill(victim.runner.pid, signal.SIGKILL)
        victim.runner.join(10)
        for batch in batches[kill_tick:]:
            backend.update_many(batch)  # journaled while the worker is down
        ratio_down = backend.effective_delivery_ratio
        healed = backend.heal_workers()
        backend.flush()
        ratio_healed = backend.effective_delivery_ratio
        scores = backend.scores_for(queries)
    return {
        "ratio_down": ratio_down,
        "ratio_healed": ratio_healed,
        "healed_shards": healed,
        "identical": bool(np.array_equal(scores, reference_scores)),
    }


def build_table() -> Table:
    inproc_seconds, inproc_scores = _drive(
        create_backend("complaint", shards=WORKERS)
    )
    with create_backend("complaint", shards=WORKERS, workers=True) as backend:
        worker_seconds, worker_scores = _drive(backend)
    drill = _recovery_drill()
    speedup = inproc_seconds / worker_seconds
    table = Table(
        columns=["metric", "value"],
        title=(
            f"Worker distribution: {NUM_PEERS} peers, {NUM_TICKS} ticks x "
            f"{OBS_PER_TICK} obs + {QUERIES_PER_TICK} queries, "
            f"{WORKERS} shards vs {WORKERS} worker processes "
            f"({os.cpu_count()} cores)"
        ),
    )
    table.add_row("in-process ops/s", round(_throughput(inproc_seconds)))
    table.add_row("workers ops/s", round(_throughput(worker_seconds)))
    table.add_row("speedup", round(speedup, 3))
    table.add_row(
        "speedup bar", "enforced" if ENFORCE_SPEEDUP else "recorded only"
    )
    table.add_row(
        "scores identical", "yes" if np.array_equal(
            inproc_scores, worker_scores
        ) else "NO"
    )
    table.add_row("delivery ratio after kill", round(drill["ratio_down"], 3))
    table.add_row("delivery ratio after heal", round(drill["ratio_healed"], 3))
    table.add_row(
        "recovered scores identical", "yes" if drill["identical"] else "NO"
    )
    table.meta = {
        "speedup": speedup,
        "identical": bool(np.array_equal(inproc_scores, worker_scores)),
        "drill": drill,
    }
    return table


def test_worker_distribution(benchmark):
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(HARD_TIMEOUT_SECONDS)
    try:
        table = run_once(benchmark, build_table)
    finally:
        signal.alarm(0)
    emit("worker_distribution", table)
    speedup = table.meta["speedup"]
    drill = table.meta["drill"]
    emit_json(
        "worker_distribution",
        table_metrics(table),
        bars={
            "update_query_speedup": bar(
                round(speedup, 3), MIN_SPEEDUP, speedup >= MIN_SPEEDUP,
                enforced=ENFORCE_SPEEDUP,
            ),
            "scores_identical": bar(
                table.meta["identical"], True, table.meta["identical"]
            ),
            "delivery_ratio_healed": bar(
                round(drill["ratio_healed"], 3), 1.0,
                drill["ratio_healed"] == 1.0,
            ),
            "recovered_scores_identical": bar(
                drill["identical"], True, drill["identical"]
            ),
        },
    )
    # Score invisibility is non-negotiable at any scale.
    assert table.meta["identical"]
    # The kill-and-recover drill must fully heal the partition.
    assert drill["ratio_down"] < 1.0
    assert drill["ratio_healed"] == 1.0
    assert drill["healed_shards"] == [1]
    assert drill["identical"]
    # The throughput bar is the point of the PR — on hardware that can
    # actually run 4 workers in parallel.
    if ENFORCE_SPEEDUP:
        assert speedup >= MIN_SPEEDUP, (
            f"worker backend reached only {speedup:.2f}x vs in-process "
            f"(bar: {MIN_SPEEDUP}x)"
        )
