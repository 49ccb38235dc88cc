"""Telemetry overhead — `summary` instrumentation must stay under 5%.

The telemetry plane's design bar: a fully instrumented run (registry
counters, histograms and spans live on every hot path — backend batches,
evidence traffic, exchange screening/planning, shard scatter) costs less
than **5%** wall clock over the identical run with ``telemetry=off`` on
the flash-crowd scenario.  ``off`` itself is architecturally free (the
null registry is a shared class attribute; call sites pay one attribute
lookup and a false ``enabled`` check) and is pinned bit-identical by
``tests/obs/test_telemetry_wiring.py`` — this benchmark guards the *on*
path so instrumentation creep never silently taxes the pipeline.

Method: interleaved off/summary pairs after one warm-up pair, the arm that
runs first alternating from pair to pair.  Each run is timed in reference
seconds by ``perfbench/hostclock.py``'s ``HostClock``, which probes the
host's speed while the runs go on, so a host that slows down or speeds up
between the two runs of a pair does not show as overhead.  The overhead is
the median of the per-pair ratios summary/off, minus 1.  A sanity check
first asserts the instrumented run actually recorded the hot-path metrics
it claims to measure.

Scales: **full / default** a 60-peer, 20-round flash crowd; **smoke**
(``REPRO_BENCH_SMOKE=1``) a 24-peer, 8-round one for CI.  The < 5% bar is
enforced at both scales; the measured fraction lands in
``BENCH_telemetry_overhead.json`` either way.
"""

from __future__ import annotations

import importlib.util
import os
import statistics
from pathlib import Path
from time import perf_counter

from _harness import bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.obs.metrics import MetricsRegistry
from repro.workloads.registry import build_registered_scenario

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

if SMOKE:
    SIZE = 24
    ROUNDS = 8
    # A smoke run lasts about 0.1 s, two or three host-speed probes, so
    # one pair's ratio scatters by a few percent; more pairs steady the
    # median.
    PAIRS = 25
else:
    SIZE = 60
    ROUNDS = 20
    PAIRS = 9

SEED = 11
MAX_OVERHEAD = 0.05

#: Metrics the instrumented arm must have recorded — proof the measured
#: run exercised the instrumentation rather than a silently-dead registry.
EXPECTED_METRICS = (
    "backend.complaint.update_batches",
    "exchange.candidates",
    "evidence.records_applied",
)


def _run(registry):
    scenario = build_registered_scenario(
        "flash-crowd", size=SIZE, rounds=ROUNDS, seed=SEED, telemetry=registry
    )
    result = scenario.simulation().run()
    return result.accounts.attempted


def _host_clock():
    """``perfbench/hostclock.py``'s ``HostClock``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "hostclock.py"
    spec = importlib.util.spec_from_file_location("perfbench_hostclock", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HostClock()


def _measure():
    """Median per-pair overhead over PAIRS interleaved off/summary pairs."""
    clock = _host_clock()
    # (arm, start, end) of every measured run, in run order.
    runs = []
    attempted = {}
    last_snapshot = {}
    with clock:
        for pair in range(PAIRS + 1):
            arms = ("off", "summary") if pair % 2 else ("summary", "off")
            for arm in arms:
                registry = MetricsRegistry() if arm == "summary" else None
                start = perf_counter()
                attempted[arm] = _run(registry)
                end = perf_counter()
                if pair:  # pair 0 warms up
                    runs.append((arm, start, end))
                if registry is not None:
                    last_snapshot = registry.snapshot()["metrics"]
    seconds = {"off": [], "summary": []}
    for arm, start, end in runs:
        seconds[arm].append(clock.reference_at(end) - clock.reference_at(start))
    ratios = [
        summary / off for off, summary in zip(seconds["off"], seconds["summary"])
    ]
    return {
        "off_seconds": statistics.median(seconds["off"]),
        "summary_seconds": statistics.median(seconds["summary"]),
        "overhead_fraction": statistics.median(ratios) - 1.0,
        "attempted_off": attempted["off"],
        "attempted_summary": attempted["summary"],
        "snapshot_metrics": last_snapshot,
    }


def build_table() -> Table:
    measured = _measure()
    table = Table(
        title=(
            "Telemetry overhead — flash-crowd, {} peers x {} rounds "
            "(median of {} interleaved pairs, reference seconds)".format(
                SIZE, ROUNDS, PAIRS
            )
        ),
        columns=("mode", "median seconds", "overhead"),
    )
    table.add_row("off", "{:.4f}".format(measured["off_seconds"]), "-")
    table.add_row(
        "summary",
        "{:.4f}".format(measured["summary_seconds"]),
        "{:+.2%}".format(measured["overhead_fraction"]),
    )
    table.meta = measured  # stashed for the assertions below
    return table


def test_telemetry_summary_overhead(benchmark):
    table = run_once(benchmark, build_table)
    emit("telemetry_overhead", table)
    measured = table.meta
    snapshot = measured.pop("snapshot_metrics")
    recorded = all(name in snapshot for name in EXPECTED_METRICS)
    emit_json(
        "telemetry_overhead",
        table_metrics(table),
        bars={
            "instrumentation_live": bar(
                sum(name in snapshot for name in EXPECTED_METRICS),
                len(EXPECTED_METRICS),
                recorded,
            ),
            "same_work_measured": bar(
                measured["attempted_summary"],
                measured["attempted_off"],
                measured["attempted_summary"] == measured["attempted_off"],
            ),
            # The wall-clock numbers themselves are non-compared (they vary
            # by host); only the *ratio* is a bar, matching the BENCH
            # convention of never diffing raw timings.
            "overhead_under_bar": bar(
                round(measured["overhead_fraction"], 4),
                MAX_OVERHEAD,
                measured["overhead_fraction"] < MAX_OVERHEAD,
            ),
        },
    )
    # The instrumented arm really was instrumented, and did the same work.
    assert recorded
    assert measured["attempted_summary"] == measured["attempted_off"]
    # The headline bar: summary-mode telemetry costs < 5% wall clock.
    assert measured["overhead_fraction"] < MAX_OVERHEAD
