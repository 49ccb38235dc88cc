"""Sharded complaint-store overhead — scatter/gather cost and working-set split.

``ShardedBackend`` buys horizontal partitioning of the community's shared
complaint store (each shard's arrays hold only its own peer-id range)
at the cost of routing every batch: updates scatter by
home shard and queries gather per-shard vectors back into caller order.
This experiment prices that indirection on the workload shape the
community simulation produces — a stream of observations ingested in
per-tick batches over a 10k-peer id space, with a score sweep after every
tick — at 1, 4 and 16 shards.

Two numbers matter:

* **overhead** — sharded wall time over unsharded (``shards=1`` uses the
  plain backend, no wrapper).  The acceptance bar is **< 3x at 4
  shards**: complaint evidence is *delivered twice* by design (the
  accused's and the complainant's home shards each count their own row),
  an intrinsic write amplification on top of scatter/gather, so the bound
  is that amplification + 1.
* **max shard share** — the largest shard's fraction of the resident
  complaint rows: how much of the working set one shard actually holds
  (1/N is the ideal split).
"""

from __future__ import annotations

import os
import random
import time

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.trust.backend import TrustObservation, create_backend
from repro.trust.sharding import ShardedBackend

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
NUM_PEERS = 2_000 if SMOKE else 10_000
NUM_OBSERVATIONS = 10_000 if SMOKE else 50_000
NUM_TICKS = 5 if SMOKE else 10
#: Subjects scored per tick (the reference-median recomputation makes full
#: sweeps the dominant cost on both sides).
NUM_QUERIES = 200 if SMOKE else 1_000
SHARD_COUNTS = (1, 4, 16)
SEED = 23
REPEATS = 3

#: Maximum sharded/unsharded slowdown at 4 shards: two-shard complaint
#: delivery doubles the write work before any scatter cost, so the bound
#: is write amplification + 1.
MAX_OVERHEAD = 3.0


def _observation_stream():
    rng = random.Random(SEED)
    peers = [f"peer-{index:05d}" for index in range(NUM_PEERS)]
    observations = [
        TrustObservation(
            observer_id=rng.choice(peers),
            subject_id=rng.choice(peers),
            honest=rng.random() < 0.7,
            timestamp=float(index * NUM_TICKS // NUM_OBSERVATIONS),
            weight=rng.uniform(0.5, 5.0),
        )
        for index in range(NUM_OBSERVATIONS)
    ]
    batches = [[] for _ in range(NUM_TICKS)]
    for index, observation in enumerate(observations):
        batches[index * NUM_TICKS // NUM_OBSERVATIONS].append(observation)
    return peers, batches


def _build(shards: int):
    if shards == 1:
        return create_backend("complaint")
    return ShardedBackend(shards)


def _drive(shards: int, peers, batches) -> float:
    queries = peers[:NUM_QUERIES]
    best = float("inf")
    for _ in range(REPEATS):
        backend = _build(shards)
        start = time.perf_counter()
        for tick, batch in enumerate(batches):
            backend.update_many(batch)
            backend.scores_for(queries, now=float(tick))
        best = min(best, time.perf_counter() - start)
    return best


def _max_shard_share(shards: int, batches) -> float:
    backend = _build(shards)
    for batch in batches:
        backend.update_many(batch)
    if shards == 1:
        return 1.0
    rows = backend.shard_row_counts()
    return int(rows.max()) / max(1, int(rows.sum()))


def build_table() -> Table:
    peers, batches = _observation_stream()
    table = Table(
        columns=[
            "shards",
            "time s",
            "overhead",
            "max shard share",
        ],
        title=(
            f"Sharded complaint-store overhead: {NUM_OBSERVATIONS} "
            f"observations over {NUM_PEERS} peers, {NUM_TICKS} ticks, "
            f"{NUM_QUERIES} queries per tick (best of {REPEATS})"
        ),
    )
    baseline = None
    for shards in SHARD_COUNTS:
        elapsed = _drive(shards, peers, batches)
        if baseline is None:
            baseline = elapsed
        table.add_row(
            shards,
            round(elapsed, 4),
            round(elapsed / baseline, 2),
            round(_max_shard_share(shards, batches), 3),
        )
    return table


def test_sharded_backend_overhead(benchmark):
    table = run_once(benchmark, build_table)
    emit("sharded_backend_overhead", table)
    overhead = {row[0]: row[2] for row in table.rows}
    share = {row[0]: row[3] for row in table.rows}
    emit_json(
        "sharded_backend_overhead",
        table_metrics(table),
        bars={
            "complaint_overhead_4shards": bar(
                overhead[4], MAX_OVERHEAD, overhead[4] < MAX_OVERHEAD
            ),
            "share_4shards": bar(share[4], 0.5, share[4] < 0.5),
            "share_16shards": bar(share[16], 0.2, share[16] < 0.2),
        },
    )
    # The scatter/gather bar: sharding must stay a deployment knob, not a
    # performance regression.
    assert overhead[4] < MAX_OVERHEAD
    # Partitioning must actually shrink the per-shard working set.
    assert share[4] < 0.5
    assert share[16] < 0.2
