"""Table 1 — existence of safe exchange sequences.

Motivates the paper's contribution: for realistic valuation workloads a
*fully safe* schedule rarely exists (and a strictly safe one never does in an
isolated exchange), so either reputation continuation or trust-based accepted
exposure is needed.  For every workload and price position the table reports

* the fraction of sampled bundles admitting a fully safe (non-strict)
  schedule with no tolerance at all,
* the fraction admitting a schedule once a modest reputation continuation
  value backs both sides, and
* the mean *total tolerance* (combined continuation value / accepted
  exposure) required to make the exchange schedulable at all.
"""

from __future__ import annotations

import random
import zlib

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.core.planner import exists_feasible_sequence, required_total_tolerance
from repro.core.safety import ExchangeRequirements
from repro.workloads.valuations import valuation_workload

WORKLOADS = ("ebay", "digital", "teamwork", "stress")
PRICE_POSITIONS = (0.25, 0.5, 0.75)
BUNDLE_SIZE = 5
SAMPLES = 60
REPUTATION_CONTINUATION = 5.0


def build_table() -> Table:
    table = Table(
        [
            "workload",
            "price position",
            "fully safe (%)",
            "with reputation (%)",
            "mean required tolerance",
        ],
        title="Table 1: existence of safe exchange sequences",
    )
    for workload_name in WORKLOADS:
        model = valuation_workload(workload_name)
        for position in PRICE_POSITIONS:
            # crc32, unlike hash() of a str, is the same in every process.
            rng = random.Random(zlib.crc32(f"{workload_name}:{position}".encode()))
            fully_safe = 0
            with_reputation = 0
            tolerances = []
            for _ in range(SAMPLES):
                bundle = model.sample_bundle(rng, BUNDLE_SIZE)
                low = bundle.total_supplier_cost
                high = max(bundle.total_consumer_value, low)
                price = low + position * (high - low)
                if exists_feasible_sequence(
                    bundle, price, ExchangeRequirements.fully_safe()
                ):
                    fully_safe += 1
                if exists_feasible_sequence(
                    bundle,
                    price,
                    ExchangeRequirements.with_reputation(
                        REPUTATION_CONTINUATION, REPUTATION_CONTINUATION
                    ),
                ):
                    with_reputation += 1
                tolerances.append(required_total_tolerance(bundle, price))
            table.add_row(
                workload_name,
                position,
                100.0 * fully_safe / SAMPLES,
                100.0 * with_reputation / SAMPLES,
                sum(tolerances) / len(tolerances),
            )
    return table


def test_table1_safe_existence(benchmark):
    table = run_once(benchmark, build_table)
    emit("table1_safe_existence", table)
    ebay_rows = [row for row in table.rows if row[0] == "ebay"]
    digital_rows = [row for row in table.rows if row[0] == "digital"]
    stress_rows = [row for row in table.rows if row[0] == "stress"]
    emit_json(
        "table1_safe_existence",
        table_metrics(table),
        bars={
            "ebay_safe_rare": bar(
                max(row[2] for row in ebay_rows), 50.0,
                all(row[2] <= 50.0 for row in ebay_rows),
            ),
            "continuation_helps": bar(
                min(row[3] - row[2] for row in table.rows), 0.0,
                all(row[3] >= row[2] for row in table.rows),
            ),
            "digital_needs_less_tolerance": bar(
                max(row[4] for row in digital_rows),
                min(row[4] for row in stress_rows),
                max(row[4] for row in digital_rows)
                < min(row[4] for row in stress_rows),
            ),
        },
    )
    # Sanity of the claimed shape: fully safe schedules are rare for the
    # physical-goods workloads, and reputation continuation helps.
    assert all(row[2] <= 50.0 for row in ebay_rows)
    assert all(row[3] >= row[2] for row in table.rows)
    # Digital goods (near-zero cost) need far less tolerance than stress bundles.
    assert max(row[4] for row in digital_rows) < min(row[4] for row in stress_rows)
