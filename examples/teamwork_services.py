#!/usr/bin/env python3
"""Mobile teamwork scenario: trading services among collaborators.

The paper's original motivation is a (mobile) teamwork environment in which
participants trade services.  Services are costly to perform and their value
to the recipient is only weakly related to that cost, so bundles routinely
contain items whose cost exceeds their value to the consumer — exactly the
instances where a fully safe schedule cannot exist and reputation plus trust
must carry the exchange.

The example compares, on the teamwork scenario, how much the community
achieves with (a) fully safe exchanges backed only by the ongoing
collaboration value, (b) the trust-aware extension on top of it, and (c) how
the required tolerance of typical service bundles relates to those two, and
prints the per-round welfare series of the trust-aware run.

Run with:  python examples/teamwork_services.py
"""

from repro.analysis.figures import Figure
from repro.analysis.stats import summarize
from repro.baselines import SafeOnlyStrategy
from repro.core.planner import required_total_tolerance
from repro.core.valuation import make_bundle
from repro.marketplace import TrustAwareStrategy
from repro.workloads import (
    build_registered_scenario,
    teamwork_service_valuations,
)


def tolerance_analysis() -> None:
    print("=" * 70)
    print("Part 1: how much tolerance do teamwork service bundles need?")
    print("=" * 70)
    model = teamwork_service_valuations()
    tolerances = []
    for seed in range(60):
        bundle = make_bundle(model, 4, seed=seed)
        if not bundle.is_rational_trade:
            continue
        price = (bundle.total_supplier_cost + bundle.total_consumer_value) / 2.0
        tolerances.append(required_total_tolerance(bundle, price))
    stats = summarize(tolerances)
    print(
        "Combined continuation value / accepted exposure required to schedule "
        "a typical 4-service bundle:"
    )
    print(f"  mean {stats.mean:.2f}  (min {stats.minimum:.2f}, max {stats.maximum:.2f})")
    print(
        "  -> an ongoing collaboration worth ~2 per partner is rarely enough; "
        "trust-based exposure closes the gap."
    )
    print()


def community_comparison() -> None:
    print("=" * 70)
    print("Part 2: the teamwork community, safe-only vs trust-aware")
    print("=" * 70)
    results = {}
    for name, strategy in [
        ("safe-only", SafeOnlyStrategy()),
        ("trust-aware", TrustAwareStrategy()),
    ]:
        scenario = build_registered_scenario(
            "teamwork", size=18, rounds=30, dishonest_fraction=0.15, seed=11
        )
        results[name] = scenario.simulation(strategy).run()
    for name, result in results.items():
        print(
            f"  {name:12s} completed {result.accounts.completed:4d}/"
            f"{result.accounts.attempted}  honest welfare "
            f"{result.honest_welfare():8.1f}  honest losses "
            f"{result.honest_losses():7.1f}"
        )
    print()

    aware = results["trust-aware"]
    figure = Figure(
        "Trust-aware teamwork community", x_label="round", y_label="welfare"
    )
    series = figure.new_series("per-round realised welfare")
    for round_stats in aware.rounds:
        series.add(round_stats.round_index, round_stats.accounts.total_welfare)
    print(figure.render_ascii(width=60, height=10))


def main() -> None:
    tolerance_analysis()
    community_comparison()


if __name__ == "__main__":
    main()
