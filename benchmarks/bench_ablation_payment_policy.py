"""Ablation A — payment chunking policy (lazy / balanced / eager).

All payment policies respect the same temptation allowances, but they place
the tolerated exposure differently: the lazy policy keeps the consumer's
money late (shifting realised exposure towards the supplier side), the eager
policy pre-pays as much as the bounds allow (shifting exposure towards the
consumer side), and the balanced policy sits in between.  The table reports
the realised maximal temptations per policy over a workload of bundles.
"""

from __future__ import annotations

import random

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.core.planner import PaymentPolicy, build_sequence, plan_delivery_order
from repro.core.safety import ExchangeRequirements, verify_sequence
from repro.workloads.valuations import valuation_workload

SAMPLES = 80
BUNDLE_SIZE = 5
EXPOSURE = 12.0
SEED = 11


def build_table() -> Table:
    table = Table(
        [
            "payment policy",
            "mean max supplier temptation",
            "mean max consumer temptation",
            "mean payment chunks",
            "all safe",
        ],
        title="Ablation A: payment policy",
    )
    model = valuation_workload("ebay")
    requirements = ExchangeRequirements(
        consumer_accepted_exposure=EXPOSURE, supplier_accepted_exposure=EXPOSURE
    )
    rng = random.Random(SEED)
    instances = []
    for _ in range(SAMPLES):
        bundle = model.sample_bundle(rng, BUNDLE_SIZE)
        price = (bundle.total_supplier_cost + bundle.total_consumer_value) / 2.0
        order = plan_delivery_order(bundle, price, requirements)
        if order is not None:
            instances.append((bundle, price, order))

    for policy in (
        PaymentPolicy.LAZY,
        PaymentPolicy.BALANCED,
        PaymentPolicy.EAGER,
        PaymentPolicy.MINIMAL_EXPOSURE,
    ):
        supplier_temptations = []
        consumer_temptations = []
        chunk_counts = []
        all_safe = True
        for bundle, price, order in instances:
            sequence = build_sequence(bundle, price, requirements, order, policy)
            supplier_temptations.append(max(0.0, sequence.max_supplier_temptation))
            consumer_temptations.append(max(0.0, sequence.max_consumer_temptation))
            chunk_counts.append(sequence.num_payments)
            if not verify_sequence(sequence, requirements).safe:
                all_safe = False
        table.add_row(
            policy.value,
            sum(supplier_temptations) / len(supplier_temptations),
            sum(consumer_temptations) / len(consumer_temptations),
            sum(chunk_counts) / len(chunk_counts),
            "yes" if all_safe else "NO",
        )
    return table


def test_ablation_payment_policy(benchmark):
    table = run_once(benchmark, build_table)
    emit("ablation_payment_policy", table)
    rows = {row[0]: row for row in table.rows}
    minimal_row = rows["minimal-exposure"]
    emit_json(
        "ablation_payment_policy",
        table_metrics(table),
        bars={
            "all_safe": bar(
                [row[4] for row in table.rows],
                "yes",
                all(row[4] == "yes" for row in table.rows),
            ),
            "eager_exposes_supplier_side": bar(
                rows["eager"][1], rows["lazy"][1],
                rows["eager"][1] >= rows["lazy"][1],
            ),
            "lazy_exposes_consumer_side": bar(
                rows["lazy"][2], rows["eager"][2],
                rows["lazy"][2] >= rows["eager"][2],
            ),
            "balanced_between_extremes": bar(
                rows["balanced"][1], [rows["lazy"][1], rows["eager"][1]],
                rows["lazy"][1] - 1e-9
                <= rows["balanced"][1]
                <= rows["eager"][1] + 1e-9,
            ),
            "minimal_bounds_both": bar(
                [minimal_row[1], minimal_row[2]],
                [rows["eager"][1], rows["lazy"][2]],
                minimal_row[1] <= rows["eager"][1] + 1e-9
                and minimal_row[2] <= rows["lazy"][2] + 1e-9,
            ),
        },
    )
