"""Evidence repair — effective delivery, convergence time, message overhead.

The async evidence plane at ``loss > 0`` permanently discards evidence; the
repair subsystem (:mod:`repro.simulation.repair`) is supposed to turn that
information loss back into bounded extra latency at bounded extra traffic.
This experiment runs the same lossy community workload (20% per-message
loss, exponential latency) without repair and under gossip repair and
prices the trade:

* **effective delivery** — fraction of evidence *entries* eventually
  applied after the plane drains (dedup makes gossiped duplicates free of
  double counting);
* **drain ticks** — extra rounds past the simulation horizon until the
  plane converges (the "bounded number of ticks" of the acceptance bar);
* **overhead** — total messages sent (evidence + digests + entry batches)
  relative to the no-repair run;
* **convergence lag** — p50/p95 rounds from entry emission to final
  application.

A third run repeats gossip with every party polling 3 witnesses, so
witness traffic interleaves with each origin's evidence; once its
journals agree after the drain, it reports the **digest extras** — held
sequence numbers past each origin's contiguous prefix, read from every
journal's keys and summed.

Enforced bars: gossip must reach **>= 0.99 effective delivery** within
the drain budget at **< 3x message overhead** vs no-repair, the no-repair
baseline must actually lose evidence — otherwise the experiment proves nothing — and the settled
witness run's journals must hold **zero extras** (``gossip_digest_compact``:
witness traffic never punches holes into the journaled sequence space, so
a converged journal holds seqs ``1..n`` of every origin).  The extras
count is deterministic, not a timing.
"""

from __future__ import annotations

import os

import numpy as np
from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.marketplace.strategy import TrustAwareStrategy
from repro.workloads import build_registered_scenario

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SIZE = 10 if SMOKE else 20
ROUNDS = 10 if SMOKE else 30
LOSS = 0.2
LATENCY = 1.0
SEED = 7
POLICIES = ("off", "gossip")
#: Label and witness count of the gossip run with witness traffic on.
WITNESS_RUN = "gossip+witnesses"
WITNESS_COUNT = 3
#: Extra ticks past the horizon a run gets to converge.
MAX_DRAIN_TICKS = 40 if SMOKE else 60

#: Acceptance bars (gossip repair).
REQUIRED_EFFECTIVE = 0.99
MAX_OVERHEAD = 3.0


def _run_policy(policy: str, witness_count=None):
    scenario = build_registered_scenario(
        "p2p-file-trading",
        size=SIZE,
        rounds=ROUNDS,
        seed=SEED,
        evidence_mode="async",
        evidence_latency=LATENCY,
        evidence_loss=LOSS,
        evidence_repair=policy,
        # One digest exchange per peer every other round keeps anti-entropy
        # well under the overhead bar while still converging in a handful
        # of ticks; the CLI defaults (period 1, fanout 2) trade more
        # traffic for faster healing.
        gossip_period=2.0,
        gossip_fanout=1,
        witness_count=witness_count,
    )
    simulation = scenario.simulation(TrustAwareStrategy())
    result = simulation.run()
    drain_ticks = simulation.evidence_plane.drain(max_ticks=MAX_DRAIN_TICKS)
    return simulation.evidence_plane, result.evidence_counters, drain_ticks


def _settled_extras(plane, clock: float):
    """Held seqs beyond each origin's contiguous prefix, once journals agree.

    The drain stops when every entry is applied; journals still missing
    relayed copies keep gossiping here (at most ``MAX_DRAIN_TICKS`` more
    ticks) so that only holes the sequence space itself leaves are counted.
    """
    journals = list(plane.journals.values())
    for _ in range(MAX_DRAIN_TICKS):
        digests = [journal.digest() for journal in journals]
        if all(np.array_equal(digest, digests[0]) for digest in digests):
            break
        clock += 1.0
        plane.advance(clock)
    extras = 0
    for journal in journals:
        seqs = {}
        for origin, seq in journal.keys():
            seqs.setdefault(origin, []).append(seq)
        for held in seqs.values():
            prefix = 0
            while prefix < len(held) and held[prefix] == prefix + 1:
                prefix += 1
            extras += len(held) - prefix
    return extras


def build_table() -> Table:
    table = Table(
        columns=[
            "policy",
            "sent",
            "overhead",
            "delivery ratio",
            "effective delivery",
            "drain ticks",
            "lag p50",
            "lag p95",
            "dups suppressed",
            "digest extras",
        ],
        title=(
            f"Evidence repair at {LOSS:.0%} loss: {SIZE} peers, {ROUNDS} "
            f"rounds, drain budget {MAX_DRAIN_TICKS} ticks"
        ),
    )
    baseline_sent = None
    runs = [(policy, policy, None) for policy in POLICIES]
    runs.append((WITNESS_RUN, "gossip", WITNESS_COUNT))
    for label, policy, witness_count in runs:
        plane, counters, drain_ticks = _run_policy(policy, witness_count)
        if baseline_sent is None:
            baseline_sent = counters.sent
        row = [
            label,
            counters.sent,
            # Witness polling adds traffic of its own: no overhead figure.
            "-" if witness_count else round(counters.sent / baseline_sent, 2),
            round(counters.delivery_ratio, 4),
            round(counters.effective_delivery_ratio, 4),
            drain_ticks,
            round(counters.convergence_lag_p50, 2),
            round(counters.convergence_lag_p95, 2),
            counters.duplicates_suppressed,
        ]
        if plane.journaling:
            row.append(_settled_extras(plane, ROUNDS + drain_ticks))
        else:
            row.append("-")
        table.add_row(*row)
    return table


def test_evidence_repair_convergence(benchmark):
    table = run_once(benchmark, build_table)
    emit("evidence_repair", table)
    rows = {row[0]: row for row in table.rows}
    effective = {policy: rows[policy][4] for policy in POLICIES}
    overhead = {policy: rows[policy][2] for policy in POLICIES}
    drain = {policy: rows[policy][5] for policy in POLICIES}
    extras = rows[WITNESS_RUN][9]
    emit_json(
        "evidence_repair",
        table_metrics(table),
        bars={
            "baseline_lossy": bar(effective["off"], 0.95, effective["off"] < 0.95),
            "gossip_effective": bar(
                effective["gossip"], REQUIRED_EFFECTIVE,
                effective["gossip"] >= REQUIRED_EFFECTIVE,
            ),
            "gossip_drain": bar(
                drain["gossip"], MAX_DRAIN_TICKS, drain["gossip"] < MAX_DRAIN_TICKS
            ),
            "gossip_overhead": bar(
                overhead["gossip"], MAX_OVERHEAD, overhead["gossip"] < MAX_OVERHEAD
            ),
            "gossip_digest_compact": bar(extras, 0, extras == 0),
        },
    )
