"""Figure 3 — risk-averseness trade-off: trade volume versus losses.

The paper leaves "how much to decrease the expected gains" to the partners'
risk averseness.  This experiment sweeps the expected-loss budget of the
decision policy (small budget = very risk averse, large budget = permissive)
and reports, for a fixed mixed community, the completion rate, the honest
population's welfare and its losses to defectors.

Expected shape: with a tiny budget the community behaves like safe-only
(little trade, no losses); with an excessive budget it approaches the naive
strategies (lots of trade, heavy losses); honest welfare peaks in between —
the crossover that motivates making the exposure *trust-aware* rather than
maximal.
"""

from __future__ import annotations

from _harness import bar, emit, emit_json, figure_metrics, run_once

from repro.analysis.figures import Figure
from repro.core.decision import ExpectedLossBudgetPolicy
from repro.marketplace import TrustAwareStrategy
from repro.simulation.community import CommunityConfig, CommunitySimulation
from repro.trust import create_backend
from repro.workloads.populations import PopulationSpec, build_population
from repro.workloads.valuations import valuation_workload

BUDGET_FRACTIONS = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
COMMUNITY_SIZE = 16
ROUNDS = 20
DISHONEST_FRACTION = 0.3
SEED = 23


def run_with_budget(budget_fraction: float):
    spec = PopulationSpec(
        size=COMMUNITY_SIZE,
        honest_fraction=1.0 - DISHONEST_FRACTION,
        dishonest_fraction=DISHONEST_FRACTION,
        probabilistic_fraction=0.0,
    )
    shared_store = create_backend("complaint", metric_mode="balanced")
    peers = build_population(spec, complaint_store=shared_store, seed=SEED)
    for peer in peers:
        peer.trust_method = "combined"
    strategy = TrustAwareStrategy(
        supplier_policy=ExpectedLossBudgetPolicy(budget_fraction=budget_fraction),
        consumer_policy=ExpectedLossBudgetPolicy(budget_fraction=budget_fraction),
    )
    config = CommunityConfig(
        rounds=ROUNDS,
        bundle_size=5,
        valuation_model=valuation_workload("ebay"),
        seed=SEED,
    )
    return CommunitySimulation(peers, strategy, config).run()


def build_figure() -> Figure:
    figure = Figure(
        "Figure 3: effect of the risk-averseness budget",
        x_label="expected-loss budget (fraction of gain)",
        y_label="value",
    )
    completion = figure.new_series("completion rate")
    welfare = figure.new_series("honest welfare (scaled 1/1000)")
    losses = figure.new_series("honest losses (scaled 1/1000)")
    for budget in BUDGET_FRACTIONS:
        result = run_with_budget(budget)
        completion.add(budget, result.completion_rate)
        welfare.add(budget, result.honest_welfare() / 1000.0)
        losses.add(budget, result.honest_losses() / 1000.0)
    return figure


def test_fig3_exposure_tradeoff(benchmark):
    figure = run_once(benchmark, build_figure)
    emit("fig3_exposure_tradeoff", figure)
    completion = figure.series_by_label("completion rate")
    losses = figure.series_by_label("honest losses (scaled 1/1000)")
    welfare = figure.series_by_label("honest welfare (scaled 1/1000)")
    best_index = max(range(len(welfare.ys)), key=lambda i: welfare.ys[i])
    emit_json(
        "fig3_exposure_tradeoff",
        figure_metrics(figure),
        bars={
            "permissive_trades_more": bar(
                completion.ys[-1], completion.ys[0],
                completion.ys[-1] > completion.ys[0],
            ),
            "permissive_loses_more": bar(
                losses.ys[-1], losses.ys[0], losses.ys[-1] > losses.ys[0]
            ),
            "welfare_peaks_inside": bar(
                best_index, len(welfare.ys) - 1,
                0 < best_index < len(welfare.ys) - 1
                or welfare.ys[best_index] > welfare.ys[-1],
            ),
        },
    )
    # More permissive budgets trade more and lose more.
    assert completion.ys[-1] > completion.ys[0]
    assert losses.ys[-1] > losses.ys[0]
    # Honest welfare peaks at an intermediate budget (not at either extreme).
    assert 0 < best_index < len(welfare.ys) - 1 or welfare.ys[best_index] > welfare.ys[-1]
