"""Live shard rebalancing — post-split balance and the cost of the splits.

A flash-crowd workload grows the peer-id space monotonically: every tick a
burst of never-seen ids joins the complaint stream, so whatever partition
of the shared complaint store owns the hot region of the key space keeps
filling up.  With rebalancing off the layout is frozen at construction and
the skew persists for the rest of the run; with ``RebalancePolicy``
auto-splitting, the store snapshots a hot shard mid-run, re-files its
complaint log onto two successors and swaps the router's key table — the
P-Grid path-split, live.

Two acceptance bars (enforced in CI via ``make bench-smoke``):

* **balance** — after the splits, the largest shard's share of the
  interned working set is at most ``2/N`` for the final shard count ``N``
  (the policy's skew threshold is 1.5, so meeting 2/N leaves headroom for
  the min-rows floor on the last, smallest shards).
* **split pause** — the cumulative wall time spent inside live splits
  (snapshot + re-file + swap) stays under 10% of the total run time;
  rebalancing must be a background maintenance cost, not a second
  workload.

The run starts from a deliberately lopsided layout (a consistent-hash ring
with one point per shard — the classic single-vnode skew) so the policy
has real imbalance to repair, exactly the situation a static ``hash``
router could never escape.
"""

from __future__ import annotations

import random
import time

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.trust import RebalancePolicy, ShardedBackend, TrustObservation

# One scale for the full and the smoke pass: the whole stream runs in about
# a second, and a smaller stream would not amortise the split pause the
# way a real run does (the pause bar would measure the stream's size).
INITIAL_PEERS = 2_000
ARRIVALS_PER_TICK = 1_000
NUM_TICKS = 12
OBSERVATIONS_PER_TICK = 8_000
QUERIES_PER_TICK = 2_000
INITIAL_SHARDS = 4
SEED = 31

#: Policy under test: skew-triggered splits, generous shard headroom.
POLICY = RebalancePolicy(
    threshold=1.5, max_shards=64, split_rows=None, min_shard_rows=32,
    check_every=1
)

#: Enforced bars (see module docstring).
MAX_SHARE_FACTOR = 2.0   # max shard share <= MAX_SHARE_FACTOR / final shards
MAX_PAUSE_FRACTION = 0.10


def _flash_crowd_stream():
    """Per-tick observation batches over a monotonically growing id space."""
    rng = random.Random(SEED)
    peers = [f"flash-{index:06d}" for index in range(INITIAL_PEERS)]
    ticks = []
    for tick in range(NUM_TICKS):
        arrivals = [
            f"flash-{len(peers) + index:06d}" for index in range(ARRIVALS_PER_TICK)
        ]
        peers.extend(arrivals)
        batch = [
            TrustObservation(
                observer_id=rng.choice(peers),
                subject_id=rng.choice(peers),
                honest=rng.random() < 0.7,
                timestamp=float(tick),
                weight=rng.uniform(0.5, 4.0),
            )
            for _ in range(OBSERVATIONS_PER_TICK)
        ]
        queries = rng.sample(peers, min(QUERIES_PER_TICK, len(peers)))
        ticks.append((batch, queries))
    return ticks


def _drive(rebalance: bool, ticks):
    backend = ShardedBackend(
        INITIAL_SHARDS,
        router="ring",
        rebalance=POLICY if rebalance else None,
    )
    start = time.perf_counter()
    for tick, (batch, queries) in enumerate(ticks):
        backend.update_many(batch)
        backend.scores_for(queries, now=float(tick))
    elapsed = time.perf_counter() - start
    rows = backend.shard_row_counts()
    share = float(rows.max()) / max(1, int(rows.sum()))
    return {
        "backend": backend,
        "elapsed": elapsed,
        "share": share,
        "shards": backend.num_shards,
        "splits": len(backend.rebalance_events),
        "pause": backend.rebalance_seconds,
    }


def build_table() -> Table:
    ticks = _flash_crowd_stream()
    table = Table(
        columns=[
            "rebalance",
            "shards",
            "splits",
            "max share",
            "2/N bar",
            "split pause s",
            "total s",
            "pause frac",
        ],
        title=(
            f"Live shard rebalancing on a flash-crowd stream: "
            f"{INITIAL_PEERS}+{ARRIVALS_PER_TICK}/tick peers, "
            f"{NUM_TICKS} ticks, ring router from {INITIAL_SHARDS} shards"
        ),
    )
    results = {}
    for mode, rebalance in (("off", False), ("auto", True)):
        outcome = _drive(rebalance, ticks)
        results[mode] = outcome
        table.add_row(
            mode,
            outcome["shards"],
            outcome["splits"],
            round(outcome["share"], 3),
            round(MAX_SHARE_FACTOR / outcome["shards"], 3),
            round(outcome["pause"], 4),
            round(outcome["elapsed"], 4),
            round(outcome["pause"] / outcome["elapsed"], 4),
        )
    table.meta = results  # stashed for the bars
    return table


def test_shard_rebalance_balance_and_pause(benchmark):
    table = run_once(benchmark, build_table)
    emit("shard_rebalance", table)
    off, auto = table.meta["off"], table.meta["auto"]
    emit_json(
        "shard_rebalance",
        table_metrics(table),
        bars={
            "splits_ran": bar(auto["splits"], 0, auto["splits"] > 0),
            "layout_grew": bar(
                auto["shards"], INITIAL_SHARDS, auto["shards"] > INITIAL_SHARDS
            ),
            "share_balanced": bar(
                auto["share"], MAX_SHARE_FACTOR / auto["shards"],
                auto["share"] <= MAX_SHARE_FACTOR / auto["shards"],
            ),
            "skew_was_real": bar(
                off["share"], POLICY.threshold / INITIAL_SHARDS,
                off["share"] > POLICY.threshold / INITIAL_SHARDS
                and auto["share"] < off["share"],
            ),
            "pause_bounded": bar(
                auto["pause"], MAX_PAUSE_FRACTION * auto["elapsed"],
                auto["pause"] < MAX_PAUSE_FRACTION * auto["elapsed"],
            ),
        },
    )
