"""Figure 2 — trust-learning accuracy versus number of interactions.

The paper assumes an underlying trust-computation module that supplies
probabilistic estimates of honest behaviour.  This experiment measures how
quickly the two implemented models converge towards the peers' ground-truth
honesty as interaction evidence accumulates:

* the Bayesian beta model from direct experience only,
* the beta model augmented with witness reports (reputation reporting), and
* the complaint-based model over a shared complaint store.

Expected shape: error decreases with the number of observed interactions;
witness-augmented estimation converges fastest because it pools evidence.
"""

from __future__ import annotations

import random

from _harness import bar, emit, emit_json, figure_metrics, run_once

from repro.analysis.figures import Figure
from repro.reputation.reporting import WitnessPool, indirect_belief
from repro.trust.beta import BetaTrustModel
from repro.trust.complaint import ComplaintTrustModel, LocalComplaintStore
from repro.trust.metrics import mean_absolute_error

INTERACTION_COUNTS = (1, 2, 5, 10, 20, 40)
NUM_SUBJECTS = 20
NUM_WITNESSES = 5
SEED = 7


def simulate(observations_per_subject: int, seed: int = SEED):
    """Simulate direct + witness observations of subjects with known honesty."""
    rng = random.Random(seed * 1000 + observations_per_subject)
    honesty = {
        f"subject-{index}": rng.uniform(0.0, 1.0) for index in range(NUM_SUBJECTS)
    }
    observer = BetaTrustModel()
    witnesses = {f"witness-{w}": BetaTrustModel() for w in range(NUM_WITNESSES)}
    complaint_store = LocalComplaintStore()
    complaint_model = ComplaintTrustModel(
        store=complaint_store, metric_mode="balanced"
    )

    for subject_id, true_honesty in honesty.items():
        for _ in range(observations_per_subject):
            honest = rng.random() < true_honesty
            observer.record_outcome(subject_id, honest=honest)
            if not honest:
                complaint_model.file_complaint("observer", subject_id)
        for witness_id, witness_model in witnesses.items():
            for _ in range(observations_per_subject):
                honest = rng.random() < true_honesty
                witness_model.record_outcome(subject_id, honest=honest)
                if not honest:
                    complaint_model.file_complaint(witness_id, subject_id)

    direct_estimates = {
        subject_id: observer.trust(subject_id) for subject_id in honesty
    }
    pool = WitnessPool(models=witnesses)
    witness_estimates = {
        subject_id: indirect_belief(subject_id, observer, pool).mean
        for subject_id in honesty
    }
    complaint_estimates = {
        subject_id: complaint_model.trust(subject_id) for subject_id in honesty
    }
    return honesty, direct_estimates, witness_estimates, complaint_estimates


def build_figure() -> Figure:
    figure = Figure(
        "Figure 2: trust estimation error vs interactions per subject",
        x_label="interactions",
        y_label="mean absolute error",
    )
    direct_series = figure.new_series("beta (direct)")
    witness_series = figure.new_series("beta + witnesses")
    complaint_series = figure.new_series("complaint-based")
    for count in INTERACTION_COUNTS:
        honesty, direct, witnessed, complaint = simulate(count)
        direct_series.add(count, mean_absolute_error(direct, honesty))
        witness_series.add(count, mean_absolute_error(witnessed, honesty))
        complaint_series.add(count, mean_absolute_error(complaint, honesty))
    return figure


def test_fig2_trust_learning(benchmark):
    figure = run_once(benchmark, build_figure)
    emit("fig2_trust_learning", figure)
    direct = figure.series_by_label("beta (direct)")
    witnessed = figure.series_by_label("beta + witnesses")
    emit_json(
        "fig2_trust_learning",
        figure_metrics(figure),
        bars={
            "direct_error_decreases": bar(
                direct.ys[-1], direct.ys[0], direct.ys[-1] < direct.ys[0]
            ),
            "witnessed_error_decreases": bar(
                witnessed.ys[-1], witnessed.ys[0], witnessed.ys[-1] < witnessed.ys[0]
            ),
            "witnesses_speed_coldstart": bar(
                witnessed.ys[0], direct.ys[0] + 0.02,
                witnessed.ys[0] <= direct.ys[0] + 0.02,
            ),
            "direct_converges": bar(direct.ys[-1], 0.15, direct.ys[-1] < 0.15),
        },
    )
