"""Ablation C — source of trust evidence.

The trust estimate handed to the decision module can come from different
sources: the peer's own (direct) experience, direct experience augmented with
witness reports, the community-wide complaint store, or the conservative
combination.  This experiment runs the same community with each source and
reports trust-estimation error against ground truth and the resulting
accept/reject quality (false-accept and false-reject rates at threshold 0.5).

Expected shape: witness-augmented and complaint-based estimation identify the
dishonest minority faster than purely direct experience, at the price of
being exposed to false complaints.
"""

from __future__ import annotations

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.marketplace import TrustAwareStrategy
from repro.simulation.community import CommunityConfig, CommunitySimulation
from repro.simulation.peer import TrustMethod
from repro.trust import create_backend
from repro.trust.metrics import classification_report, mean_absolute_error
from repro.workloads.populations import PopulationSpec, build_population
from repro.workloads.valuations import valuation_workload

COMMUNITY_SIZE = 16
ROUNDS = 30
DISHONEST_FRACTION = 0.25
SEED = 31


def run_with_trust_method(method: str):
    spec = PopulationSpec(
        size=COMMUNITY_SIZE,
        honest_fraction=1.0 - DISHONEST_FRACTION,
        dishonest_fraction=DISHONEST_FRACTION,
        probabilistic_fraction=0.0,
        false_complaint_probability=0.4,
    )
    shared_store = create_backend("complaint", metric_mode="balanced")
    peers = build_population(spec, complaint_store=shared_store, seed=SEED)
    for peer in peers:
        peer.trust_method = method
    config = CommunityConfig(
        rounds=ROUNDS,
        bundle_size=5,
        valuation_model=valuation_workload("ebay"),
        seed=SEED,
    )
    result = CommunitySimulation(peers, TrustAwareStrategy(), config).run()
    return peers, result


def evaluate(method: str):
    peers, result = run_with_trust_method(method)
    truth = result.true_honesty
    errors = []
    false_accepts = []
    false_rejects = []
    honest_peers = [peer for peer in peers if peer.true_honesty >= 0.99]
    for peer in honest_peers:
        beta = peer.backend_for("beta")
        estimates = {
            subject_id: peer.trust_in(subject_id)
            for subject_id in truth
            if subject_id != peer.peer_id and beta.observation_count(subject_id) > 0
        }
        if not estimates:
            continue
        subject_truth = {k: truth[k] for k in estimates}
        errors.append(mean_absolute_error(estimates, subject_truth))
        labels = {k: truth[k] >= 0.5 for k in estimates}
        report = classification_report(estimates, labels, threshold=0.5)
        false_accepts.append(report.false_accept_rate)
        false_rejects.append(report.false_reject_rate)
    mean = lambda values: sum(values) / len(values) if values else 0.0  # noqa: E731
    return (
        mean(errors),
        mean(false_accepts),
        mean(false_rejects),
        result.honest_welfare(),
        result.honest_losses(),
    )


def build_table() -> Table:
    table = Table(
        [
            "trust source",
            "estimate MAE",
            "false accept rate",
            "false reject rate",
            "honest welfare",
            "honest losses",
        ],
        title="Ablation C: source of trust evidence",
    )
    for method in (TrustMethod.BETA, TrustMethod.COMPLAINT, TrustMethod.COMBINED):
        error, false_accept, false_reject, welfare, losses = evaluate(method)
        table.add_row(method, error, false_accept, false_reject, welfare, losses)
    return table


def test_ablation_trust_sources(benchmark):
    table = run_once(benchmark, build_table)
    emit("ablation_trust_sources", table)
    rows = {row[0]: row for row in table.rows}
    emit_json(
        "ablation_trust_sources",
        table_metrics(table),
        bars={
            "error_moderate": bar(
                max(row[1] for row in table.rows), 0.5,
                all(row[1] < 0.5 for row in table.rows),
            ),
            "combined_conservative": bar(
                rows[TrustMethod.COMBINED][2], rows[TrustMethod.BETA][2],
                rows[TrustMethod.COMBINED][2] <= rows[TrustMethod.BETA][2] + 1e-9,
            ),
            "honest_welfare_positive": bar(
                min(row[4] for row in table.rows), 0.0,
                all(row[4] > 0 for row in table.rows),
            ),
        },
    )
