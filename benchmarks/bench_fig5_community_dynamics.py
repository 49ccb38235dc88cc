"""Figure 5 — community dynamics: the reputation feedback loop over time.

Runs a long community simulation with the trust-aware strategy and a naive
baseline and plots, per round, the honest population's cumulative welfare and
the per-round losses to defectors.

Expected shape: under the trust-aware strategy early rounds incur some losses
(no reputation data yet); as evidence accumulates, losses per round shrink
and cumulative honest welfare pulls away from the naive baseline, whose
per-round losses stay roughly constant.
"""

from __future__ import annotations

from _harness import bar, emit, emit_json, figure_metrics, run_once

from repro.analysis.figures import Figure
from repro.baselines import GoodsFirstStrategy
from repro.marketplace import TrustAwareStrategy
from repro.simulation.community import CommunityConfig, CommunitySimulation
from repro.trust import create_backend
from repro.workloads.populations import PopulationSpec, build_population
from repro.workloads.valuations import valuation_workload

ROUNDS = 60
COMMUNITY_SIZE = 16
DISHONEST_FRACTION = 0.3
SEED = 5


def run(strategy):
    spec = PopulationSpec(
        size=COMMUNITY_SIZE,
        honest_fraction=1.0 - DISHONEST_FRACTION,
        dishonest_fraction=DISHONEST_FRACTION,
        probabilistic_fraction=0.0,
        false_complaint_probability=0.2,
    )
    shared_store = create_backend("complaint", metric_mode="balanced")
    peers = build_population(spec, complaint_store=shared_store, seed=SEED)
    # Community-wide learning: peers combine their own experience with the
    # shared complaint store, so one victim's complaint protects everyone.
    for peer in peers:
        peer.trust_method = "combined"
    config = CommunityConfig(
        rounds=ROUNDS,
        bundle_size=5,
        valuation_model=valuation_workload("ebay"),
        seed=SEED,
    )
    return CommunitySimulation(peers, strategy, config).run()


def build_figure() -> Figure:
    figure = Figure(
        "Figure 5: per-round defection losses as reputation accumulates",
        x_label="round",
        y_label="losses (per 10-round window)",
    )
    aware = run(TrustAwareStrategy())
    naive = run(GoodsFirstStrategy())
    window = 10
    aware_series = figure.new_series("trust-aware")
    naive_series = figure.new_series("goods-first")
    for start in range(0, ROUNDS, window):
        rounds_slice = slice(start, start + window)
        aware_series.add(
            start + window,
            sum(r.accounts.victim_losses for r in aware.rounds[rounds_slice]),
        )
        naive_series.add(
            start + window,
            sum(r.accounts.victim_losses for r in naive.rounds[rounds_slice]),
        )
    return figure


def test_fig5_community_dynamics(benchmark):
    figure = run_once(benchmark, build_figure)
    emit("fig5_community_dynamics", figure)
    aware = figure.series_by_label("trust-aware")
    naive = figure.series_by_label("goods-first")
    half = len(aware.ys) // 2
    emit_json(
        "fig5_community_dynamics",
        figure_metrics(figure),
        bars={
            "aware_losses_shrink": bar(
                sum(aware.ys[half:]), sum(aware.ys[:half]),
                sum(aware.ys[half:]) < sum(aware.ys[:half]),
            ),
            "naive_keeps_losing": bar(
                naive.ys[-1], aware.ys[-1], naive.ys[-1] > aware.ys[-1]
            ),
            "aware_total_lower": bar(
                sum(aware.ys), sum(naive.ys), sum(aware.ys) < sum(naive.ys)
            ),
        },
    )
    # Trust-aware losses shrink over time: the second half of the run loses
    # less than the first half (the first windows are the learning phase).
    assert sum(aware.ys[half:]) < sum(aware.ys[:half])
    # The naive strategy keeps losing value at a roughly steady (high) rate:
    # its final window still loses more than the trust-aware final window.
    assert naive.ys[-1] > aware.ys[-1]
    # Total losses are lower under the trust-aware strategy.
    assert sum(aware.ys) < sum(naive.ys)
