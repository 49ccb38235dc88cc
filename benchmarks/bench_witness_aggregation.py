"""Witness aggregation throughput — scalar merge loop vs. batched matrix path.

The evidence-plane refactor replaced the per-witness scalar merge
(``combine_beta_evidence`` folding one :class:`WitnessReport` at a time into
a ``BetaBelief``) with one vectorized ``aggregate_witness_reports`` call over
a witness-belief matrix.  This experiment measures the speedup on the query
shape the community simulation produces: a batch of subjects assessed against
the same witness set, repeated every tick.

Scalar reference: :class:`repro.trust.backend.ScalarBetaBackendAdapter`'s
``aggregate_witness_reports`` — a faithful Python loop over
``combine_beta_evidence`` per subject.  Batched:
:class:`repro.trust.backend.BetaTrustBackend` folding the whole matrix in one
numpy pass.  Both consume the *same* matrix, so the comparison isolates the
aggregation arithmetic; agreement between the two paths is pinned separately
by ``tests/trust/test_witness_aggregation.py``.

The acceptance bar for the evidence-plane refactor is >= 5x.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.trust.backend import (
    BetaTrustBackend,
    ScalarBetaBackendAdapter,
    TrustObservation,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
NUM_SUBJECTS = 40 if SMOKE else 200
NUM_WITNESSES = 10 if SMOKE else 50
NUM_SWEEPS = 3 if SMOKE else 20
NUM_DIRECT_OBSERVATIONS = 500 if SMOKE else 2_000
SEED = 23

#: Minimum batched-over-scalar witness-aggregation speedup.
REQUIRED_SPEEDUP = 5.0


def _build_inputs():
    rng = random.Random(SEED)
    subjects = [f"peer-{index:04d}" for index in range(NUM_SUBJECTS)]
    observations = [
        TrustObservation(
            observer_id="self",
            subject_id=rng.choice(subjects),
            honest=rng.random() < 0.7,
            weight=rng.uniform(0.5, 4.0),
        )
        for _ in range(NUM_DIRECT_OBSERVATIONS)
    ]
    matrix = np.empty((NUM_WITNESSES, NUM_SUBJECTS, 2))
    matrix[:, :, 0] = 1.0 + np.array(
        [[rng.uniform(0, 30) for _ in subjects] for _ in range(NUM_WITNESSES)]
    )
    matrix[:, :, 1] = 1.0 + np.array(
        [[rng.uniform(0, 10) for _ in subjects] for _ in range(NUM_WITNESSES)]
    )
    discounts = np.array([rng.random() for _ in range(NUM_WITNESSES)])
    return subjects, observations, matrix, discounts


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _sweeps(backend, subjects, matrix, discounts):
    for _ in range(NUM_SWEEPS):
        backend.aggregate_witness_reports(subjects, matrix, discounts)


def build_table() -> Table:
    subjects, observations, matrix, discounts = _build_inputs()

    scalar_backend = ScalarBetaBackendAdapter()
    scalar_backend.update_many(observations)
    batched_backend = BetaTrustBackend()
    batched_backend.update_many(observations)

    # Both paths must agree before either is worth timing.
    scalar_scores = scalar_backend.aggregate_witness_reports(
        subjects, matrix, discounts
    )
    batched_scores = batched_backend.aggregate_witness_reports(
        subjects, matrix, discounts
    )
    max_divergence = float(np.max(np.abs(scalar_scores - batched_scores)))
    assert max_divergence < 1e-9, max_divergence

    scalar_s = _timed(lambda: _sweeps(scalar_backend, subjects, matrix, discounts))
    batched_s = _timed(lambda: _sweeps(batched_backend, subjects, matrix, discounts))

    merges = NUM_SWEEPS * NUM_SUBJECTS * NUM_WITNESSES
    table = Table(
        columns=[
            "path",
            "time s",
            "merges/s",
            "speedup",
        ],
        title=(
            f"Witness aggregation: {NUM_SUBJECTS} subjects x "
            f"{NUM_WITNESSES} witnesses x {NUM_SWEEPS} sweeps"
        ),
    )
    table.add_row("scalar merge loop", round(scalar_s, 4), int(merges / scalar_s), 1.0)
    table.add_row(
        "batched matrix",
        round(batched_s, 4),
        int(merges / batched_s),
        round(scalar_s / batched_s, 1),
    )
    return table


def test_witness_aggregation_throughput(benchmark):
    table = run_once(benchmark, build_table)
    emit("witness_aggregation_throughput", table)
    speedup = table.rows[1][3]
    emit_json(
        "witness_aggregation_throughput",
        table_metrics(table),
        bars={
            "batched_speedup": bar(
                speedup, REQUIRED_SPEEDUP, speedup >= REQUIRED_SPEEDUP
            ),
        },
    )
