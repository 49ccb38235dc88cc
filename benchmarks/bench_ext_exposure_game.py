"""Extension experiment — the exposure game (the paper's future work).

The paper's conclusion announces a game-theoretic extension "when the
partners are interested in maximizing their gains".  The
:class:`~repro.core.gametheory.ExposureGame` implements that extension: each
partner strategically chooses how much exposure to accept.  This experiment
computes the equilibrium exposures and utilities as a function of the mutual
trust level for a bundle that cannot be exchanged fully safely, and also
reports the repeated-exchange discount threshold that would sustain the same
exchange without any accepted exposure.

Expected shape: below some trust level the equilibrium is "no trade" (both
sides best-respond with zero exposure); above it both parties accept enough
exposure for the exchange to be scheduled and their equilibrium utilities
jump to positive values and grow with trust.
"""

from __future__ import annotations

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.core.gametheory import ExposureGame, cooperation_discount_threshold
from repro.core.goods import Good, GoodsBundle

TRUST_LEVELS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)


def bundle_under_test() -> GoodsBundle:
    return GoodsBundle(
        [
            Good(good_id="milestone-1", supplier_cost=6.0, consumer_value=10.0),
            Good(good_id="milestone-2", supplier_cost=9.0, consumer_value=14.0),
        ]
    )


def build_table() -> Table:
    bundle = bundle_under_test()
    price = 20.0
    table = Table(
        [
            "mutual trust",
            "eq. supplier exposure",
            "eq. consumer exposure",
            "eq. supplier utility",
            "eq. consumer utility",
            "trade happens",
        ],
        title="Extension: equilibrium of the exposure game",
    )
    for trust in TRUST_LEVELS:
        game = ExposureGame(
            bundle,
            price,
            supplier_trust_in_consumer=trust,
            consumer_trust_in_supplier=trust,
            exposure_grid=[0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 15.0],
        )
        equilibrium = game.find_equilibrium()
        table.add_row(
            trust,
            equilibrium.supplier_exposure,
            equilibrium.consumer_exposure,
            equilibrium.supplier_utility,
            equilibrium.consumer_utility,
            "yes" if equilibrium.schedulable else "no",
        )
    return table


def test_ext_exposure_game(benchmark):
    table = run_once(benchmark, build_table)
    threshold = cooperation_discount_threshold(bundle_under_test(), 20.0)
    emit(
        "ext_exposure_game",
        table.render()
        + "\n\nRepeated-exchange discount threshold sustaining the same "
        + f"exchange without accepted exposure: {threshold:.3f}",
    )
    trades = table.column("trade happens")
    utilities = table.column("eq. consumer utility")
    first_trade = trades.index("yes") if "yes" in trades else -1
    metrics = table_metrics(table)
    metrics["discount_threshold"] = threshold
    emit_json(
        "ext_exposure_game",
        metrics,
        bars={
            "distrust_blocks_trade": bar(trades[0], "no", trades[0] == "no"),
            "trust_enables_trade": bar(trades[-1], "yes", trades[-1] == "yes"),
            "utility_grows_with_trust": bar(
                utilities[-1], utilities[first_trade],
                first_trade >= 0
                and utilities[first_trade] >= 0.0
                and utilities[-1] >= utilities[first_trade],
            ),
            "threshold_in_range": bar(
                threshold, [0.3, 1.0],
                threshold is not None and 0.3 < threshold < 1.0,
            ),
        },
    )
