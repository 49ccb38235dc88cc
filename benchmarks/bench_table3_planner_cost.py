"""Table 3 — scheduling cost of the planners.

The paper claims a provably correct *quadratic-time* algorithm.  This
benchmark measures the wall-clock cost of the ``O(n log n)`` greedy planner
and of the explicit ``O(n^2)`` scan variant over growing bundle sizes and
checks the growth is polynomial and mild (the quadratic variant's cost ratio
between consecutive size doublings stays well below cubic growth).

A second table prices a complete schedule (delivery order, payment chunks
and temptation profile) per bundle at the small sizes the community
simulation trades: ``plan_exchange`` one bundle at a time against one
``plan_exchange_batch`` call over ``GROUP`` same-size bundles, as the round
loop plans them.  It is reported, not gated.
"""

from __future__ import annotations

import time

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.core.planner import (
    plan_delivery_order,
    plan_delivery_order_quadratic,
    plan_exchange,
    plan_exchange_batch,
)
from repro.core.safety import ExchangeRequirements
from repro.core.valuation import MarginValuationModel, make_bundle

SIZES = (25, 50, 100, 200, 400)
REPEATS = 20
#: Bundle sizes and group size of the batched-planning table.
BATCH_SIZES = (4, 8, 16, 32)
GROUP = 256


def _time_planner(planner, bundle, price, requirements) -> float:
    start = time.perf_counter()
    for _ in range(REPEATS):
        order = planner(bundle, price, requirements)
        assert order is not None
    return (time.perf_counter() - start) / REPEATS


def build_table() -> Table:
    table = Table(
        ["bundle size", "greedy (ms)", "quadratic scan (ms)"],
        title="Table 3: planner cost vs bundle size",
    )
    model = MarginValuationModel(margin_low=-0.3, margin_high=0.6)
    requirements = ExchangeRequirements(
        consumer_accepted_exposure=1000.0, supplier_accepted_exposure=1000.0
    )
    for size in SIZES:
        bundle = make_bundle(model, size, seed=size)
        price = (bundle.total_supplier_cost + bundle.total_consumer_value) / 2.0
        greedy_seconds = _time_planner(
            plan_delivery_order, bundle, price, requirements
        )
        quadratic_seconds = _time_planner(
            plan_delivery_order_quadratic, bundle, price, requirements
        )
        table.add_row(size, greedy_seconds * 1000.0, quadratic_seconds * 1000.0)
    return table


def _per_bundle_seconds(plan, bundles, prices, requirements) -> float:
    start = time.perf_counter()
    for _ in range(REPEATS):
        plan(bundles, prices, requirements)
    return (time.perf_counter() - start) / REPEATS / len(bundles)


def _one_at_a_time(bundles, prices, requirements):
    for bundle, price, requirement in zip(bundles, prices, requirements):
        assert plan_exchange(bundle, price, requirement).profile is not None


def _batched(bundles, prices, requirements):
    plans = plan_exchange_batch(bundles, prices, requirements)
    assert all(plan is not None for plan in plans)


def build_batched_table() -> Table:
    table = Table(
        ["bundle size", "plan_exchange (ms)", "batched (ms)", "speedup"],
        title=(
            "Table 3b: complete schedules, ms per bundle "
            "(batches of {} same-size bundles)".format(GROUP)
        ),
    )
    model = MarginValuationModel(margin_low=-0.3, margin_high=0.6)
    for size in BATCH_SIZES:
        bundles = [make_bundle(model, size, seed=size * GROUP + i) for i in range(GROUP)]
        prices = [
            (bundle.total_supplier_cost + bundle.total_consumer_value) / 2.0
            for bundle in bundles
        ]
        requirements = [
            ExchangeRequirements(
                consumer_accepted_exposure=1000.0, supplier_accepted_exposure=1000.0
            )
        ] * GROUP
        scalar = _per_bundle_seconds(_one_at_a_time, bundles, prices, requirements)
        batched = _per_bundle_seconds(_batched, bundles, prices, requirements)
        table.add_row(size, scalar * 1000.0, batched * 1000.0, scalar / batched)
    return table


def test_table3_planner_cost(benchmark):
    table = run_once(benchmark, build_table)
    batched = build_batched_table()
    emit("table3_planner_cost", table.render() + "\n\n" + batched.render())
    quadratic_times = table.column("quadratic scan (ms)")
    greedy_times = table.column("greedy (ms)")
    quadratic_growth = quadratic_times[-1] / max(quadratic_times[2], 1e-6)
    greedy_growth = greedy_times[-1] / max(greedy_times[2], 1e-6)
    emit_json(
        "table3_planner_cost",
        dict(table_metrics(table), batched=table_metrics(batched)),
        bars={
            "quadratic_growth": bar(quadratic_growth, 64.0, quadratic_growth < 64.0),
            "greedy_growth": bar(greedy_growth, 16.0, greedy_growth < 16.0),
            "largest_under_100ms": bar(
                quadratic_times[-1], 100.0, quadratic_times[-1] < 100.0
            ),
        },
    )
    # Cost grows with size but stays far below cubic blow-up: going from 100
    # to 400 items (4x) must not inflate the quadratic variant by more than
    # ~64x (with slack for timer noise), nor the greedy one by more than ~16x.
    assert quadratic_times[-1] / max(quadratic_times[2], 1e-6) < 64.0
    assert greedy_times[-1] / max(greedy_times[2], 1e-6) < 16.0
    # The largest instance still plans in well under 100 ms.
    assert quadratic_times[-1] < 100.0


def test_planner_call_microbenchmark(benchmark):
    """Raw pytest-benchmark timing of one planner call on a 100-item bundle."""
    model = MarginValuationModel(margin_low=-0.3, margin_high=0.6)
    bundle = make_bundle(model, 100, seed=7)
    price = (bundle.total_supplier_cost + bundle.total_consumer_value) / 2.0
    requirements = ExchangeRequirements(
        consumer_accepted_exposure=1000.0, supplier_accepted_exposure=1000.0
    )
    order = benchmark(plan_delivery_order, bundle, price, requirements)
    assert order is not None
