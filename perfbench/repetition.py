"""One repetition of one workload: build, run, drain, check.

``run.py`` forks a fresh process for every repetition and calls :func:`run`
in it, so every repetition has its own heap and its own peak resident
memory.  With ``trace=True`` the layer wrappers of :mod:`layers` are
installed around the run.  A :class:`hostclock.HostClock` probes the host
speed throughout, and every span is re-timed in reference seconds.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Tuple

from hostclock import HostClock
from layers import Tracer, installed
from workloads import WORKLOADS

from repro.workloads.registry import build_registered_scenario


def fingerprint(result: Any, peers_final: int) -> str:
    """Hash of per-round accounts, ledger balances, delivery and final size."""
    rounds = [sorted(vars(stats.accounts).items()) for stats in result.rounds]
    state = {
        "rounds": repr(rounds),
        "balances": repr(sorted(result.ledger.balances().items())),
        "effective_delivery": repr(result.evidence_effective_delivery_ratio),
        "peers_final": peers_final,
    }
    payload = json.dumps(state, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def check(result: Any, peers_initial: int, peers_final: int, is_async: bool) -> List[str]:
    """Invariants every correct run satisfies, whatever the seed."""
    accounts = result.accounts
    problems = []
    if accounts.attempted <= 0:
        problems.append("no exchange was attempted")
    if sum(stats.accounts.attempted for stats in result.rounds) != accounts.attempted:
        problems.append("per-round attempts do not add up to the total")
    if accounts.executed + accounts.declined != accounts.attempted:
        problems.append("executed + declined != attempted")
    if len(result.ledger) != 2 * accounts.executed:
        problems.append("ledger does not hold two entries per executed exchange")
    welfare = math.fsum(result.ledger.balances().values())
    if not math.isclose(welfare, accounts.total_welfare, rel_tol=1e-9, abs_tol=1e-6):
        problems.append(f"ledger balances {welfare} != welfare {accounts.total_welfare}")
    churned = sum(
        len(stats.churn.arrived) - len(stats.churn.departed)
        for stats in result.rounds
        if stats.churn is not None
    )
    if peers_initial + churned != peers_final:
        problems.append("final peer count disagrees with the churn events")
    delivery = result.evidence_effective_delivery_ratio
    counters = result.evidence_counters
    if not is_async and delivery != 1.0:
        problems.append(f"sync run has effective delivery {delivery}")
    if is_async and (counters is None or counters.missing_entries != 0):
        problems.append("drain did not converge: entries still missing")
    if not 0.0 < delivery <= 1.0:
        problems.append(f"effective delivery {delivery} outside (0, 1]")
    return problems


def network_counts(plane: Any) -> Dict[str, float]:
    counters = plane.counters
    names = (
        "sent",
        "delivered",
        "dropped",
        "repair_messages",
        "duplicates_suppressed",
        "entries_emitted",
        "entries_applied",
        "entries_expired",
    )
    counts: Dict[str, float] = {
        f"net.{name}": (0 if counters is None else getattr(counters, name))
        for name in names
    }
    counts["net.lag_p95"] = 0.0 if counters is None else counters.convergence_lag_p95
    counts["repair.journal_entries"] = sum(
        len(journal) for journal in plane.journals.values()
    )
    return counts


def run(
    workload_name: str, seed: int, size: int, setups: int, spans_out: str = ""
) -> Dict[str, Any]:
    """Report of one repetition; traced when ``spans_out`` names a file."""
    trace = bool(spans_out)
    workload = WORKLOADS[workload_name]
    params = workload.build_params(seed, size)
    # The three root spans time the phases in every run; the layer wrappers
    # below them are installed only when tracing.
    tracer = Tracer()
    clock = HostClock()
    with clock, installed(tracer) if trace else nullcontext():
        for _ in range(1 if trace else setups):
            with tracer.span("setup.build"):
                scenario = build_registered_scenario(workload.scenario, **params)
                simulation = scenario.simulation()
        peers_initial = len(simulation.peers)
        plane = simulation.evidence_plane
        with tracer.span("community.self"):
            result = simulation.run()
        with tracer.span("evidence.drain"):
            ticks = plane.drain()

    def phases(at: Callable[[float], float] = float) -> Tuple[float, float, float]:
        """setup_s (median over the set-ups), run_s and drain_s."""
        (run_s,) = tracer.durations("community.self", at)
        (drain_s,) = tracer.durations("evidence.drain", at)
        return statistics.median(tracer.durations("setup.build", at)), run_s, drain_s

    wall_total_s = sum(phases(clock.wall_at))
    tracer.retime(clock.reference_at)
    setup_s, run_s, drain_s = phases()
    peers_final = len(simulation.peers)
    report: Dict[str, Any] = {
        "setup_s": setup_s,
        "run_s": run_s,
        "drain_s": drain_s,
        "total_s": setup_s + run_s + drain_s,
        "wall_total_s": wall_total_s,
        "host_probe_s": clock.median_probe_s(),
        "attempted": result.accounts.attempted,
        "effective_delivery": result.evidence_effective_delivery_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint(result, peers_final),
        "problems": check(result, peers_initial, peers_final, plane.is_async),
    }
    if trace:
        self_s, total = tracer.self_times()
        counts = dict(tracer.counts)
        counts.update(network_counts(plane))
        counts["evidence.drain_ticks"] = ticks
        counts["community.exchanges_attempted"] = result.accounts.attempted
        counts["community.exchanges_executed"] = result.accounts.executed
        counts["community.peers_final"] = peers_final
        report["trace"] = {"total_s": total, "self_s": self_s, "counts": counts}
        with open(spans_out, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, handle)
        if not math.isclose(math.fsum(self_s.values()), total, rel_tol=1e-9):
            report["problems"].append("layer self times do not sum to the traced total")
    return report
