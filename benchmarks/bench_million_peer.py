"""Million-peer fast path — the sharded complaint store under a flash crowd.

A synthetic flash-crowd observation stream (every tick a new wave of
never-seen peers arrives on top of a growing base, each observation filed
by a random member) is ingested into a sharded, score-cached complaint
store — the community's shared store, the one backend that is ever
sharded, on the plain flat float64 evidence layout — with a full score
sweep over a query sample after every tick and one *streaming*
snapshot/restore mid-run.  Column growth, dirty-row score caching,
scatter/gather sharding and snapshot streaming are exercised together at
community sizes from 100k to a million peers.

Scales:

* **CI / default (also the smoke pass)** — 100k peers; regression bars on
  per-tick wall clock, tracemalloc peak, and streaming-restore fidelity
  are enforced.  The 100k scale IS the smoke scale: the whole drive takes
  seconds, and shrinking it further would stop exercising column growth at
  scale.
* **million** (``REPRO_BENCH_MILLION=1``) — 1,000,000 peers, opt-in; the
  bar is completion within generous wall-clock/memory envelopes.

Two memory numbers are recorded: the **tracemalloc peak** (Python-level
allocations during the drive — enforced, deterministic) and **VmHWM** (the
process high-water mark from ``/proc/self/status`` — informational only;
it includes the interpreter, numpy, and every other test that ran in this
process).
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.trust.backend import TrustObservation, create_backend

MILLION = bool(os.environ.get("REPRO_BENCH_MILLION"))

if MILLION:
    NUM_PEERS = 1_000_000
    OBS_PER_TICK = 100_000
    MAX_TICK_SECONDS = 60.0
    MAX_TRACEMALLOC_MB = 4_000.0
else:
    NUM_PEERS = 100_000
    OBS_PER_TICK = 50_000
    MAX_TICK_SECONDS = 5.0
    MAX_TRACEMALLOC_MB = 500.0

NUM_TICKS = 8
QUERIES_PER_TICK = 10_000
SHARDS = 8
SEED = 17
#: Tick after which the run is checkpointed with a streaming snapshot.
SNAPSHOT_TICK = NUM_TICKS // 2


def _peer_name(index: int) -> str:
    return f"peer-{index:07d}"


def _tick_pool_size(tick: int) -> int:
    """The id space open at ``tick``: a base plus one new wave per tick.

    Half the community exists up front; the other half arrives in equal
    flash-crowd waves, so every tick both updates known rows (cache
    invalidation) and interns never-seen peers (column growth).
    """
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
    return [_peer_name(index) for index in rng.integers(0, pool, QUERIES_PER_TICK)]


def _build_backend():
    return create_backend("complaint", shards=SHARDS, router="ring")


def _drive(record_memory: bool):
    """Run the flash-crowd stream once; returns per-tick timings and stats."""
    rng = np.random.default_rng(SEED)
    backend = _build_backend()
    tick_seconds = []
    snapshot_seconds = 0.0
    snapshot_entries = 0
    restore_identical = True
    if record_memory:
        tracemalloc.start()
    for tick in range(NUM_TICKS):
        batch = _tick_batch(rng, tick)
        queries = _query_sample(rng, tick)
        start = time.perf_counter()
        backend.update_many(batch)
        backend.scores_for(queries, now=float(tick))
        tick_seconds.append(time.perf_counter() - start)
        if tick == SNAPSHOT_TICK:
            # Checkpoint mid-run: stream the snapshot shard by shard into a
            # fresh backend without ever materialising the full dict, then
            # verify the copy answers exactly as the original.
            start = time.perf_counter()
            replica = _build_backend()
            entries = 0

            def _stream():
                nonlocal entries
                for key, value in backend.snapshot_items():
                    entries += 1
                    yield key, value

            replica.restore_items(_stream())
            snapshot_seconds = time.perf_counter() - start
            snapshot_entries = entries
            restore_identical = bool(
                np.array_equal(
                    backend.scores_for(queries, now=float(tick)),
                    replica.scores_for(queries, now=float(tick)),
                )
            )
            del replica
    peak_mb = 0.0
    if record_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_mb = peak / 1e6
    rows = len(backend.known_subjects())
    return {
        "tick_seconds": tick_seconds,
        "snapshot_seconds": snapshot_seconds,
        "snapshot_entries": snapshot_entries,
        "restore_identical": restore_identical,
        "peak_mb": peak_mb,
        "rows": rows,
    }


def _vm_hwm_mb() -> float:
    """Process high-water mark from /proc (informational, Linux only)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def build_table() -> Table:
    timed = _drive(record_memory=False)
    traced = _drive(record_memory=True)
    table = Table(
        columns=["metric", "value"],
        title=(
            f"Million-peer fast path: {NUM_PEERS} peers, {NUM_TICKS} ticks x "
            f"{OBS_PER_TICK} observations, {SHARDS} complaint shards"
        ),
    )
    table.add_row("peers interned", timed["rows"])
    table.add_row("max tick s", round(max(timed["tick_seconds"]), 4))
    table.add_row(
        "mean tick s",
        round(sum(timed["tick_seconds"]) / len(timed["tick_seconds"]), 4),
    )
    table.add_row("snapshot stream s", round(timed["snapshot_seconds"], 4))
    table.add_row("snapshot entries", timed["snapshot_entries"])
    table.add_row(
        "restore identical", "yes" if timed["restore_identical"] else "NO"
    )
    table.add_row("tracemalloc peak MB", round(traced["peak_mb"], 1))
    table.add_row("VmHWM MB (informational)", round(_vm_hwm_mb(), 1))
    table.meta = {"timed": timed, "traced": traced}
    return table


def test_million_peer_flash_crowd(benchmark):
    table = run_once(benchmark, build_table)
    emit("million_peer", table)
    timed = table.meta["timed"]
    traced = table.meta["traced"]
    max_tick = max(timed["tick_seconds"])
    emit_json(
        "million_peer",
        table_metrics(table),
        bars={
            "tick_wall_clock": bar(
                round(max_tick, 4), MAX_TICK_SECONDS, max_tick < MAX_TICK_SECONDS
            ),
            "tracemalloc_peak": bar(
                round(traced["peak_mb"], 1), MAX_TRACEMALLOC_MB,
                traced["peak_mb"] < MAX_TRACEMALLOC_MB,
            ),
            "streaming_restore_identical": bar(
                timed["restore_identical"], True, timed["restore_identical"]
            ),
            "whole_crowd_interned": bar(
                timed["rows"], NUM_PEERS, timed["rows"] <= NUM_PEERS
            ),
        },
    )
    # Per-tick latency must stay flat enough for the simulation loop.
    assert max_tick < MAX_TICK_SECONDS
    # The store's Python-level footprint must stay inside its envelope.
    assert traced["peak_mb"] < MAX_TRACEMALLOC_MB
    # A mid-run streaming checkpoint must be invisible to scores.
    assert timed["restore_identical"]
