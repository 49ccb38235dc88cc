"""Figure 4 — reputation-store scalability (P-Grid routing cost).

The complaint-based trust model relies on a decentralised storage substrate;
its practicality rests on queries staying cheap as the community grows.  The
experiment measures the mean number of routing hops and messages per
reputation query against the network size, for both construction strategies.

Expected shape: logarithmic growth in the network size (roughly +1 hop per
doubling), far below linear scanning.
"""

from __future__ import annotations

import math

from _harness import bar, emit, emit_json, figure_metrics, run_once

from repro.analysis.figures import Figure
from repro.pgrid.network import PGridNetwork

NETWORK_SIZES = (16, 32, 64, 128, 256)
QUERIES_PER_SIZE = 80


def measure(size: int, strategy: str) -> float:
    network = PGridNetwork([f"peer-{i}" for i in range(size)], seed=size)
    network.build(strategy)
    for index in range(40):
        network.insert(f"agent-{index}", f"complaint-{index}")
    network.stats = type(network.stats)()  # reset counters before measuring
    hops = []
    for index in range(QUERIES_PER_SIZE):
        result = network.query(f"agent-{index % 40}")
        if result.success:
            hops.append(result.hops)
    return sum(hops) / max(1, len(hops))


def build_figure() -> Figure:
    figure = Figure(
        "Figure 4: reputation query cost vs community size",
        x_label="peers",
        y_label="mean routing hops",
    )
    balanced = figure.new_series("balanced construction")
    exchange = figure.new_series("exchange bootstrap")
    reference = figure.new_series("log2(n) reference")
    for size in NETWORK_SIZES:
        balanced.add(size, measure(size, "balanced"))
        exchange.add(size, measure(size, "exchange"))
        reference.add(size, math.log2(size))
    return figure


def test_fig4_pgrid_scalability(benchmark):
    figure = run_once(benchmark, build_figure)
    emit("fig4_pgrid_scalability", figure)
    balanced = figure.series_by_label("balanced construction")
    increments = [
        balanced.ys[index + 1] - balanced.ys[index]
        for index in range(len(balanced.ys) - 1)
    ]
    logarithmic = all(
        hops <= math.log2(size) + 1.0 and hops < size / 4
        for size, hops in zip(NETWORK_SIZES, balanced.ys)
    )
    emit_json(
        "fig4_pgrid_scalability",
        figure_metrics(figure),
        bars={
            "cost_grows": bar(
                balanced.ys[-1], balanced.ys[0], balanced.ys[-1] > balanced.ys[0]
            ),
            "stays_logarithmic": bar(
                max(balanced.ys), math.log2(NETWORK_SIZES[-1]) + 1.0, logarithmic
            ),
            "doubling_adds_constant": bar(
                max(increments), 2.0, max(increments) <= 2.0
            ),
        },
    )


def test_pgrid_query_microbenchmark(benchmark):
    network = PGridNetwork([f"peer-{i}" for i in range(128)], seed=1)
    network.build("balanced")
    network.insert("agent-0", "complaint")
    result = benchmark(network.query, "agent-0")
    assert result.success
