"""End-to-end round-loop benchmark of the trust-aware community simulation.

Runs one workload (see ``workloads.py``) repeatedly for ``--seconds``
seconds, each repetition in a fresh process forked from this one, one at a
time, and reports medians.  This process imports the program once and never
runs a workload itself, so a repetition starts from a heap that holds only
the imported modules.

Every time is reported in seconds at a fixed reference host speed.  On a
shared virtual machine the CPU speed changes within a second and drifts over
minutes, so raw wall clocks disagree more than any regression bound allows.
Each repetition probes the host speed every 50 ms while it runs and converts
its times (see ``hostclock.py``).  The raw median is still reported as
``wall.total_s``.

With ``--trace 0`` repetition ``i`` builds its scenario from seed
``seed * SCENARIOS_PER_SEED + i % SCENARIOS_PER_SEED``, and the end-to-end
metrics are medians over those scenarios.  With ``--trace 1`` every
repetition uses the first of those scenario seeds: half the time goes to
untraced repetitions, then one traced run at the workload's size and one at
half of it give the per-layer metrics.  Every repetition's output is
checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Usage, from the repository root:

    python3 perfbench/run.py --workload flash-sync --seed 0 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import signal
import statistics
import sys
import traceback
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import TIMED_LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCES = os.path.join(HERE, "references.json")
OUT_DIR = os.path.join(HERE, "out")
MIN_REPS = 3
#: Scenario seeds per benchmark seed.  A small community's run time depends
#: on its seed by up to a fifth (gossip convergence takes a whole number of
#: ticks), so one run's median is taken over several scenarios.
SCENARIOS_PER_SEED = 12
MIN_TRACE_REPS = 2
#: Set-ups per repetition; ``setup_s`` is their median.
SETUPS_PER_REP = 5
#: A repetition takes a few seconds; these keep a stuck one from holding the
#: run past its 180-second limit.
CHILD_TIMEOUT_S = 45
LAST_START_S = 100

#: (name, unit, better) of every metric printed with ``--trace 0``.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("exchanges_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("effective_delivery", "ratio", "higher"),
]

#: Counters read from the traced run (missing ones read 0).
COUNTS: List[Tuple[str, str]] = [
    ("community.exchanges_attempted", "higher"),
    ("community.exchanges_executed", "higher"),
    ("community.peers_final", "higher"),
    ("churn.arrivals", "higher"),
    ("churn.departures", "lower"),
    ("match.score_rows", "lower"),
    ("sharding.shard_of_calls", "lower"),
    ("match.select_weights", "lower"),
    ("exchange.screen_candidates", "lower"),
    ("exchange.screen_kept", "higher"),
    ("exchange.run_scheduled", "higher"),
    ("evidence.records_units", "lower"),
    ("evidence.drain_ticks", "lower"),
    ("repair.digest_calls", "lower"),
    ("repair.ingest_calls", "lower"),
    ("repair.journal_entries", "lower"),
    ("net.sent", "lower"),
    ("net.delivered", "higher"),
    ("net.dropped", "lower"),
    ("net.repair_messages", "lower"),
    ("net.duplicates_suppressed", "lower"),
    ("net.entries_emitted", "lower"),
    ("net.entries_applied", "higher"),
    ("net.entries_expired", "lower"),
]

#: Ratios with their numerator and base, all taken from COUNTS.
RATIOS: List[Tuple[str, str, str, str]] = [
    ("exchange.screen_kept_ratio", "exchange.screen_kept", "exchange.screen_candidates", "higher"),
    ("exchange.run_scheduled_ratio", "exchange.run_scheduled", "exchange.run_calls", "higher"),
    ("net.repair_per_entry", "net.repair_messages", "net.entries_emitted", "lower"),
]

#: Scaling probe: exponent of growth between half and full size.
SCALING: List[Tuple[str, str]] = [
    ("scale.score_rows_exp", "match.score_rows"),
    ("scale.select_weights_exp", "match.select_weights"),
    ("scale.shard_of_calls_exp", "sharding.shard_of_calls"),
    ("scale.run_calls_exp", "exchange.run_calls"),
    ("scale.run_s_exp", "run_s"),
]


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every metric printed with ``--trace 1``."""
    spec: List[Tuple[str, str, str]] = []
    for span, calls in TIMED_LAYERS.items():
        spec.append((f"{span}_s", "s", "lower"))
        spec.append((f"{span}_share", "ratio", "lower"))
        if calls is not None:
            spec.append((calls, "count", "lower"))
    spec += [(name, "count", better) for name, better in COUNTS]
    spec.append(("net.lag_p95", "ticks", "lower"))
    spec += [(name, "ratio", better) for name, _, _, better in RATIOS]
    spec += [(name, "1", "lower") for name, _ in SCALING]
    spec += [
        ("drain_s", "s", "lower"),
        ("trace.total_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("wall.total_s", "s", "lower"),
        ("host.probe_s", "s", "lower"),
    ]
    return spec


def _repetition_main(connection: Any, run: Callable[..., Dict[str, Any]], *args: Any) -> None:
    try:
        report: Optional[Dict[str, Any]] = run(*args)
    except Exception:
        traceback.print_exc()
        report = None
    connection.send(report)
    connection.close()


def run_repetition(
    run: Callable[..., Dict[str, Any]],
    workload: str,
    seed: int,
    trace: bool = False,
    size: int = 0,
) -> Optional[Dict[str, Any]]:
    """One repetition in a forked process; its report, or ``None`` if it failed."""
    size = size or WORKLOADS[workload].size
    spans_out = (
        os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-size{size}.json")
        if trace
        else ""
    )
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(
        target=_repetition_main,
        args=(sender, run, workload, seed, size, SETUPS_PER_REP, spans_out),
        daemon=True,
    )
    process.start()
    sender.close()
    report = None
    try:
        if receiver.poll(CHILD_TIMEOUT_S):
            report = receiver.recv()
        else:
            print(f"repetition of {workload} timed out", file=sys.stderr)
    except EOFError:
        pass  # the process died without reporting
    finally:
        receiver.close()
        if report is None:
            process.kill()
        process.join()
    return report


def judge(report: Optional[Dict[str, Any]], expected: Optional[str]) -> List[str]:
    """Why a repetition counts as failed (empty when it passed)."""
    if report is None:
        return ["repetition raised or timed out"]
    problems = list(report["problems"])
    if expected is not None and report["fingerprint"] != expected:
        problems.append(
            f"fingerprint {report['fingerprint']} differs from expected {expected}"
        )
    return problems


def exponent(full: float, half: float, size_ratio: float) -> float:
    if full <= 0 or half <= 0:
        return 0.0
    return math.log(full / half) / math.log(size_ratio)


def end_to_end(reports: List[Dict[str, Any]]) -> Dict[str, float]:
    def median(key: str) -> float:
        return statistics.median(report[key] for report in reports)

    metrics = {name: median(name) for name, _, _ in END_TO_END if name != "exchanges_per_s"}
    metrics["exchanges_per_s"] = statistics.median(
        report["attempted"] / (report["run_s"] + report["drain_s"]) for report in reports
    )
    return metrics


def per_layer(
    untraced: List[Dict[str, Any]],
    full: Dict[str, Any],
    half: Dict[str, Any],
    size_ratio: float,
) -> Dict[str, float]:
    trace = full["trace"]
    total = trace["total_s"]
    counts = dict(trace["counts"], run_s=full["run_s"])
    half_counts = dict(half["trace"]["counts"], run_s=half["run_s"])
    metrics: Dict[str, float] = {}
    for span, calls in TIMED_LAYERS.items():
        own = trace["self_s"].get(span, 0.0)
        metrics[f"{span}_s"] = own
        metrics[f"{span}_share"] = own / total
        if calls is not None:
            metrics[calls] = counts.get(calls, 0)
    for name, _ in COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["net.lag_p95"] = counts["net.lag_p95"]
    for name, numerator, base, _ in RATIOS:
        denominator = counts.get(base, 0)
        metrics[name] = counts.get(numerator, 0) / denominator if denominator else 0.0
    for name, key in SCALING:
        metrics[name] = exponent(counts.get(key, 0), half_counts.get(key, 0), size_ratio)
    metrics["drain_s"] = statistics.median(report["drain_s"] for report in untraced)
    metrics["trace.total_s"] = total
    metrics["trace.overhead"] = total / statistics.median(
        report["total_s"] for report in untraced
    ) - 1.0
    metrics["wall.total_s"] = statistics.median(report["wall_total_s"] for report in untraced)
    metrics["host.probe_s"] = statistics.median(report["host_probe_s"] for report in untraced)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # Turn a termination request into SystemExit, so that the repetition
    # running at the time is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    # No BLAS thread pools: the parent forks, and load is one process.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from repetition import run
    except ImportError as error:
        print(f"cannot import the program from src/: {error}", file=sys.stderr)
        return 2
    with open(REFERENCES) as handle:
        expected = {
            int(scenario_seed): fingerprint
            for scenario_seed, fingerprint in json.load(handle)[args.workload].items()
        }
    os.makedirs(OUT_DIR, exist_ok=True)

    workload = WORKLOADS[args.workload]
    budget = args.seconds / 2 if args.trace else args.seconds
    minimum = MIN_TRACE_REPS if args.trace else MIN_REPS
    first_seed = args.seed * SCENARIOS_PER_SEED

    reports: List[Tuple[int, Optional[Dict[str, Any]]]] = []
    started = last = perf_counter()
    while True:
        # Start no repetition that would likely end past the budget.
        now = perf_counter()
        elapsed, duration, last = now - started, now - last, now
        if elapsed >= LAST_START_S or (
            len(reports) >= minimum and elapsed + duration > budget
        ):
            break
        scenario_seed = first_seed + (0 if args.trace else len(reports) % SCENARIOS_PER_SEED)
        reports.append((scenario_seed, run_repetition(run, args.workload, scenario_seed)))
    traced: List[Tuple[int, Optional[Dict[str, Any]]]] = []
    if args.trace:
        half_size = workload.size // 2
        traced = [
            (first_seed, run_repetition(run, args.workload, first_seed, trace=True)),
            (-1, run_repetition(run, args.workload, first_seed, trace=True, size=half_size)),
        ]

    # A scenario seed without a recorded reference takes the fingerprint of
    # its first passing repetition: repeats and the traced run must
    # reproduce it exactly.  The half-size run has no reference (-1).
    problems = []
    for scenario_seed, report in reports + traced:
        found = judge(report, expected.get(scenario_seed))
        if report is not None and not found and scenario_seed >= 0:
            expected.setdefault(scenario_seed, report["fingerprint"])
        problems.append(found)
    for index, found in enumerate(problems):
        for problem in found:
            print(f"repetition {index}: {problem}", file=sys.stderr)
    failed = sum(1 for found in problems if found)
    passed = [report for (_, report), found in zip(reports, problems) if not found]
    if not passed or (args.trace and failed):
        print("no usable repetition: not reporting metrics", file=sys.stderr)
        return 1

    if args.trace:
        spec = per_layer_spec()
        metrics = per_layer(passed, traced[0][1], traced[1][1], workload.size / half_size)
    else:
        spec = END_TO_END
        metrics = end_to_end(passed)
    for name, unit, _ in spec:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(problems),
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
