"""Backend batch throughput — scalar models vs. vectorized trust backends.

The TrustBackend refactor replaced per-interaction scalar callbacks (append
to a per-peer observation list, rescan it on every query) with batched numpy
updates over contiguous arrays.  This experiment measures the speedup on the
workload shape the community simulation produces: a stream of observations
ingested in per-tick batches, with a full score sweep over all subjects after
every tick.

Scalar references:

* ``beta``      — :class:`repro.trust.beta.BetaTrustModel`
* ``decay``     — ``BetaTrustModel(decay=ExponentialDecay(...))``
* ``complaint`` — :class:`repro.trust.complaint.ComplaintTrustModel`

Expected shape: the batched backends win by well over an order of magnitude
at 10k observations because scalar scoring rescans the whole observation log
per subject per tick; the acceptance bar for the refactor is >= 3x.
"""

from __future__ import annotations

import os
import random
import time

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.trust.backend import (
    BetaTrustBackend,
    ComplaintTrustBackend,
    DecayTrustBackend,
    TrustObservation,
)
from repro.trust.beta import BetaTrustModel
from repro.trust.complaint import ComplaintTrustModel, LocalComplaintStore
from repro.trust.decay import ExponentialDecay

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
NUM_OBSERVATIONS = 2_000 if SMOKE else 10_000
NUM_SUBJECTS = 50 if SMOKE else 200
NUM_TICKS = 5 if SMOKE else 20
#: Subjects scored per tick in the complaint comparison (both sides score the
#: same subset; the scalar model's O(agents x complaints) reference-metric
#: recomputation per query makes a full sweep take minutes, not seconds).
NUM_COMPLAINT_QUERIES = 5 if SMOKE else 10
HALF_LIFE = 50.0
SEED = 17

#: Minimum batched-over-scalar speedup the refactor must deliver (beta).
REQUIRED_SPEEDUP = 3.0


def _observation_stream():
    rng = random.Random(SEED)
    subjects = [f"peer-{index:04d}" for index in range(NUM_SUBJECTS)]
    observations = [
        TrustObservation(
            observer_id="self",
            subject_id=rng.choice(subjects),
            honest=rng.random() < 0.7,
            timestamp=float(tick_of(i)),
            weight=rng.uniform(0.5, 5.0),
        )
        for i in range(NUM_OBSERVATIONS)
    ]
    return subjects, observations


def tick_of(index: int) -> int:
    return index * NUM_TICKS // NUM_OBSERVATIONS


def _ticks(observations):
    """Split the stream into per-tick batches (the simulation's flush unit)."""
    batches = [[] for _ in range(NUM_TICKS)]
    for index, observation in enumerate(observations):
        batches[tick_of(index)].append(observation)
    return batches


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _scalar_beta(subjects, batches, decay=None):
    model = BetaTrustModel(decay=decay)
    for tick, batch in enumerate(batches):
        for observation in batch:
            model.record_outcome(
                observation.subject_id,
                observation.honest,
                observation.observer_id,
                observation.timestamp,
                observation.weight,
            )
        for subject in subjects:
            model.trust(subject, now=float(tick))


def _batched_beta(subjects, batches, backend):
    for tick, batch in enumerate(batches):
        backend.update_many(batch)
        backend.scores_for(subjects, now=float(tick))


def _scalar_complaint(subjects, batches):
    model = ComplaintTrustModel(store=LocalComplaintStore(), metric_mode="balanced")
    queried = subjects[:NUM_COMPLAINT_QUERIES]
    for batch in batches:
        for observation in batch:
            if not observation.honest:
                model.file_complaint(
                    observation.observer_id,
                    observation.subject_id,
                    observation.timestamp,
                )
        for subject in queried:
            model.trust(subject)


def _batched_complaint(subjects, batches):
    backend = ComplaintTrustBackend(metric_mode="balanced")
    queried = subjects[:NUM_COMPLAINT_QUERIES]
    for batch in batches:
        backend.update_many(batch)
        backend.scores_for(queried)


def build_table() -> Table:
    subjects, observations = _observation_stream()
    batches = _ticks(observations)
    rows = []

    scalar = _timed(lambda: _scalar_beta(subjects, batches))
    batched = _timed(lambda: _batched_beta(subjects, batches, BetaTrustBackend()))
    rows.append(("beta", scalar, batched))

    scalar = _timed(
        lambda: _scalar_beta(subjects, batches, decay=ExponentialDecay(HALF_LIFE))
    )
    batched = _timed(
        lambda: _batched_beta(subjects, batches, DecayTrustBackend(half_life=HALF_LIFE))
    )
    rows.append(("decay", scalar, batched))

    scalar = _timed(lambda: _scalar_complaint(subjects, batches))
    batched = _timed(lambda: _batched_complaint(subjects, batches))
    rows.append(("complaint", scalar, batched))

    table = Table(
        columns=[
            "backend",
            "scalar s",
            "batched s",
            "scalar obs/s",
            "batched obs/s",
            "speedup",
        ],
        title=(
            f"Backend batch throughput: {NUM_OBSERVATIONS} observations, "
            f"{NUM_SUBJECTS} subjects, {NUM_TICKS} ticks"
        ),
    )
    for name, scalar_s, batched_s in rows:
        table.add_row(
            name,
            round(scalar_s, 4),
            round(batched_s, 4),
            int(NUM_OBSERVATIONS / scalar_s),
            int(NUM_OBSERVATIONS / batched_s),
            round(scalar_s / batched_s, 1),
        )
    return table


def test_backend_batch_throughput(benchmark):
    table = run_once(benchmark, build_table)
    emit("backend_batch_throughput", table)
    speedups = {row[0]: row[5] for row in table.rows}
    emit_json(
        "backend_batch_throughput",
        table_metrics(table),
        bars={
            "beta_speedup": bar(
                speedups["beta"], REQUIRED_SPEEDUP,
                speedups["beta"] >= REQUIRED_SPEEDUP,
            ),
            "decay_speedup": bar(
                speedups["decay"], REQUIRED_SPEEDUP,
                speedups["decay"] >= REQUIRED_SPEEDUP,
            ),
            "complaint_no_regression": bar(
                speedups["complaint"], 1.0, speedups["complaint"] >= 1.0
            ),
        },
    )
