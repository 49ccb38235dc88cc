"""Ablation B — delivery ordering rule.

Compares the greedy two-phase ordering (the library's planner) against the
exhaustive search and against naive orderings (bundle order, descending
supplier cost) on hard instances with tight allowances.  The quantities of
interest are the feasibility rate each rule achieves (how often it finds a
schedule when one exists) — the greedy planner must match the exhaustive
search exactly, while naive orderings miss feasible instances.
"""

from __future__ import annotations

import random

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.core.planner import (
    brute_force_delivery_order,
    order_is_feasible,
    plan_delivery_order,
    required_total_tolerance,
)
from repro.core.safety import ExchangeRequirements
from repro.workloads.valuations import stress_deficit_valuations

SAMPLES = 120
BUNDLE_SIZE = 6
SEED = 3


def build_table() -> Table:
    table = Table(
        ["ordering rule", "feasible found", "of feasible instances", "success rate"],
        title="Ablation B: delivery ordering rule on tight instances",
    )
    model = stress_deficit_valuations()
    rng = random.Random(SEED)
    instances = []
    for _ in range(SAMPLES):
        bundle = model.sample_bundle(rng, BUNDLE_SIZE)
        price = (bundle.total_supplier_cost + bundle.total_consumer_value) / 2.0
        # Tight-but-sufficient allowance: just above the minimum required.
        tolerance = required_total_tolerance(bundle, price) * 1.05 + 0.01
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=tolerance / 2,
            supplier_accepted_exposure=tolerance / 2,
        )
        instances.append((bundle, price, requirements))

    feasible_instances = [
        (bundle, price, requirements)
        for bundle, price, requirements in instances
        if brute_force_delivery_order(bundle, price, requirements) is not None
    ]

    def count_success(order_fn):
        hits = 0
        for bundle, price, requirements in feasible_instances:
            order = order_fn(bundle, price, requirements)
            if order is not None and order_is_feasible(
                order, bundle, price, requirements
            ):
                hits += 1
        return hits

    rules = [
        ("greedy two-phase (library)", plan_delivery_order),
        (
            "bundle order (naive)",
            lambda bundle, price, requirements: list(bundle),
        ),
        (
            "descending supplier cost",
            lambda bundle, price, requirements: sorted(
                bundle, key=lambda good: good.supplier_cost, reverse=True
            ),
        ),
        (
            "ascending consumer value",
            lambda bundle, price, requirements: sorted(
                bundle, key=lambda good: good.consumer_value
            ),
        ),
    ]
    total = len(feasible_instances)
    for name, rule in rules:
        hits = count_success(rule)
        table.add_row(name, hits, total, hits / total if total else 0.0)
    return table


def test_ablation_ordering(benchmark):
    table = run_once(benchmark, build_table)
    emit("ablation_ordering", table)
    rows = {row[0]: row for row in table.rows}
    greedy = rows["greedy two-phase (library)"]
    naive = rows["bundle order (naive)"]
    ascending = rows["ascending consumer value"]
    emit_json(
        "ablation_ordering",
        table_metrics(table),
        bars={
            "greedy_complete": bar(greedy[3], 1.0, greedy[3] == 1.0),
            "naive_incomplete": bar(naive[3], 1.0, naive[3] < 1.0),
            "ascending_incomplete": bar(ascending[3], 1.0, ascending[3] < 1.0),
        },
    )
