"""Command-line interface for quick experiments.

The subcommands cover the common interactive uses of the library:

``repro plan``
    Plan a trust-aware exchange for an ad-hoc bundle given on the command
    line and print the schedule plus the safety verification.
``repro list-scenarios``
    Print the scenario table: every named workload with its summary and
    tags, plus the available trust backends.
``repro run``
    Run any registered scenario with a chosen trust backend and exchange
    strategy (``repro run --scenario high-churn --backend decay``).
    ``--telemetry summary`` appends the metrics-registry snapshot to the
    run summary; ``--telemetry jsonl:PATH`` additionally streams span
    traces to PATH.
``repro audit``
    Run a scenario with the evidence audit trail attached, then reconcile
    the trail against the backends, the complaint store and the evidence
    journals; exits non-zero on divergence.  ``--inject`` plants a fault
    (double-apply or drop) to prove the audit detects it.
``repro check``
    Static contract analysis over the source tree (:mod:`repro.check`):
    determinism, telemetry discipline, N+1 lint, exception hygiene and
    canonical dtypes.  ``--rule`` narrows to one rule,
    ``--format json`` emits the machine-readable report, ``--baseline``
    subtracts grandfathered findings; exits non-zero on any new finding.
``repro tolerance``
    Report how much combined tolerance (continuation value / accepted
    exposure) a bundle needs to become schedulable, and the repeated-game
    discount threshold that would sustain it.

The module is also exposed as a console entry point (``repro``) and can be
invoked with ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.baselines import (
    AlternatingStrategy,
    FixedExposureStrategy,
    GoodsFirstStrategy,
    OptimisticStrategy,
    PaymentFirstStrategy,
    SafeOnlyStrategy,
)
from repro.core.decision import ExpectedLossBudgetPolicy
from repro.core.gametheory import cooperation_discount_threshold
from repro.core.goods import GoodsBundle
from repro.core.planner import required_total_tolerance
from repro.core.safety import rational_price_range
from repro.core.trust_aware import plan_trust_aware_exchange
from repro.core.safety import verify_sequence
from repro.check.registry import RULE_IDS
from repro.exceptions import ReproError
from repro.marketplace import TrustAwareStrategy
from repro.obs import (
    EvidenceAuditTrail,
    collect_audit_inputs,
    create_registry,
    inject_double_apply,
    inject_dropped_entry,
    reconcile,
)
from repro.simulation.peer import TrustMethod
from repro.simulation.repair import REPAIR_POLICIES
from repro.trust import ROUTER_NAMES, ShardedBackend
from repro.workloads import SCENARIOS, build_registered_scenario, scenario_names

__all__ = ["main", "build_parser"]

BACKEND_CHOICES = TrustMethod.ALL

STRATEGY_FACTORIES = {
    "trust-aware": TrustAwareStrategy,
    "safe-only": SafeOnlyStrategy,
    "goods-first": GoodsFirstStrategy,
    "payment-first": PaymentFirstStrategy,
    "alternating": AlternatingStrategy,
    "fixed-exposure": FixedExposureStrategy,
    "optimistic": OptimisticStrategy,
}


def _parse_bundle(items: Sequence[str]) -> GoodsBundle:
    """Parse ``name=cost:value`` item specifications into a bundle."""
    pairs = {}
    for item in items:
        try:
            name, valuation = item.split("=", 1)
            cost_text, value_text = valuation.split(":", 1)
            pairs[name] = (float(cost_text), float(value_text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"invalid item {item!r}; expected name=cost:value"
            ) from exc
    return GoodsBundle.from_pairs(pairs)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", choices=sorted(STRATEGY_FACTORIES),
                        default="trust-aware")
    parser.add_argument("--size", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--dishonest", type=float, default=0.25,
                        help="fraction of dishonest peers")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trust-aware safe exchange (ICDCS 2002 reproduction) CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    plan_parser = subparsers.add_parser(
        "plan", help="plan a trust-aware exchange for an ad-hoc bundle"
    )
    plan_parser.add_argument(
        "items",
        nargs="+",
        help="goods as name=supplier_cost:consumer_value (e.g. book=4:9)",
    )
    plan_parser.add_argument("--price", type=float, default=None,
                             help="agreed price (default: mid of the rational range)")
    plan_parser.add_argument("--supplier-trust", type=float, default=0.8,
                             help="supplier's trust in the consumer")
    plan_parser.add_argument("--consumer-trust", type=float, default=0.8,
                             help="consumer's trust in the supplier")
    plan_parser.add_argument("--budget", type=float, default=0.5,
                             help="expected-loss budget fraction of both parties")

    list_parser = subparsers.add_parser(
        "list-scenarios", help="print the scenario table and trust backends"
    )
    list_parser.add_argument("--tag", default=None,
                             help="only show scenarios carrying this tag")

    run_parser = subparsers.add_parser(
        "run", help="run a registered scenario with a chosen trust backend"
    )
    _add_scenario_knobs(run_parser)
    run_parser.add_argument("--telemetry", default="off", metavar="MODE",
                            help="telemetry recorder: 'off' (zero-cost null "
                            "recorder, the default), 'summary' (aggregate "
                            "counters/histograms appended to the run "
                            "summary) or 'jsonl:PATH' (summary plus nested "
                            "span traces streamed to PATH as JSON lines)")
    _add_run_options(run_parser)

    audit_parser = subparsers.add_parser(
        "audit",
        help="run a scenario with the evidence audit trail attached and "
        "reconcile journals, backends and the complaint store",
    )
    _add_scenario_knobs(audit_parser)
    audit_parser.add_argument("--inject", choices=("double-apply", "drop"),
                              default=None,
                              help="plant a fault after the run, before "
                              "reconciliation: re-apply one filed complaint "
                              "(double-apply) or silently delete one "
                              "(drop); the audit must flag it")
    audit_parser.add_argument("--json", default=None, metavar="PATH",
                              help="also write the machine-readable "
                              "divergence report (BENCH_*.json shape) to "
                              "PATH")
    _add_run_options(audit_parser)

    tolerance_parser = subparsers.add_parser(
        "tolerance",
        help="required tolerance and cooperation threshold for a bundle",
    )
    tolerance_parser.add_argument(
        "items", nargs="+", help="goods as name=supplier_cost:consumer_value"
    )
    tolerance_parser.add_argument("--price", type=float, default=None)

    check_parser = subparsers.add_parser(
        "check",
        help="static contract analysis: determinism, telemetry "
        "discipline, N+1 lint, exception hygiene, dtypes",
    )
    check_parser.add_argument("--root", default=None, metavar="DIR",
                              help="package tree to scan (default: the "
                              "installed repro package source directory)")
    check_parser.add_argument("--rule", action="append", default=None,
                              metavar="ID", choices=sorted(RULE_IDS),
                              help="restrict to one rule id (repeatable); "
                              "choices: " + ", ".join(sorted(RULE_IDS)))
    check_parser.add_argument("--format", choices=("text", "json"),
                              default="text", dest="output_format",
                              help="report format (default text; json is "
                              "the deterministic BENCH-shaped payload)")
    check_parser.add_argument("--baseline", default=None, metavar="PATH",
                              help="baseline file of grandfathered "
                              "findings to subtract before reporting")
    check_parser.add_argument("--write-baseline", default=None,
                              metavar="PATH",
                              help="write the current findings to PATH as "
                              "the new baseline and exit 0")
    check_parser.add_argument("--output", default=None, metavar="PATH",
                              help="also write the JSON report to PATH "
                              "(CI artifact), regardless of --format")
    return parser


def _add_scenario_knobs(run_parser: argparse.ArgumentParser) -> None:
    """Scenario/backend/evidence knobs shared by ``run`` and ``audit``."""
    run_parser.add_argument("--scenario", required=True, choices=scenario_names())
    run_parser.add_argument("--backend", choices=BACKEND_CHOICES,
                            default=None,
                            help="trust backend every peer consults "
                            "(default: the scenario's own preference, "
                            "beta when it has none)")
    run_parser.add_argument("--evidence-mode", choices=("sync", "async"),
                            default="sync",
                            help="evidence propagation: apply immediately "
                            "(sync) or route through the simulated network "
                            "(async)")
    run_parser.add_argument("--evidence-latency", type=float, default=0.0,
                            help="mean evidence delay in rounds (async mode)")
    run_parser.add_argument("--evidence-loss", type=float, default=0.0,
                            help="evidence drop probability in [0, 1) "
                            "(async mode)")
    run_parser.add_argument("--evidence-repair", choices=REPAIR_POLICIES,
                            default="off",
                            help="recover lost evidence: 'off' (lost stays "
                            "lost) or 'gossip' (periodic anti-entropy "
                            "digest exchange); async mode only")
    run_parser.add_argument("--gossip-period", type=float, default=1.0,
                            help="rounds between anti-entropy gossip "
                            "exchanges (gossip repair)")
    run_parser.add_argument("--gossip-fanout", type=int, default=2,
                            help="random partners each peer exchanges "
                            "digests with per gossip round")
    run_parser.add_argument("--witnesses", type=int, default=None,
                            help="witnesses polled per exchange (default: "
                            "the scenario's own setting)")
    run_parser.add_argument("--shards", type=int, default=1,
                            help="partition the community's shared "
                            "complaint store by peer-id range across N "
                            "shards (1 = unsharded; results are identical "
                            "for any N); each peer's own backends are "
                            "always unsharded")
    run_parser.add_argument("--shard-router", choices=ROUTER_NAMES,
                            default="hash",
                            help="shard routing strategy of the shared "
                            "complaint store: uniform hash, "
                            "contiguous key ranges (P-Grid style) or a "
                            "consistent-hash ring (hash-style assignment "
                            "that can split)")
    run_parser.add_argument("--rebalance", choices=("off", "auto"),
                            default=None,
                            help="live rebalancing of the shared "
                            "complaint store: 'auto' splits a "
                            "hot shard in place (through the snapshot "
                            "manifest) when it exceeds the skew threshold "
                            "or outgrows its row capacity; needs a "
                            "splittable router, so 'hash' is upgraded to "
                            "'ring'; splits never change results (default: "
                            "the scenario's own preference — flash-crowd "
                            "and high-churn default to auto, everything "
                            "else to off)")
    run_parser.add_argument("--rebalance-threshold", type=float, default=2.0,
                            help="skew factor over the ideal per-shard "
                            "share (rows / shard count) that triggers a "
                            "split (must be > 1)")
    run_parser.add_argument("--max-shards", type=int, default=16,
                            help="upper bound on the shard count the "
                            "auto-rebalanced complaint store may grow to")


def _default_price(bundle: GoodsBundle, price: Optional[float]) -> float:
    if price is not None:
        return price
    low, high = rational_price_range(bundle)
    return (low + high) / 2.0


def _command_plan(args: argparse.Namespace) -> int:
    bundle = _parse_bundle(args.items)
    price = _default_price(bundle, args.price)
    plan = plan_trust_aware_exchange(
        bundle,
        price,
        supplier_trust_in_consumer=args.supplier_trust,
        consumer_trust_in_supplier=args.consumer_trust,
        supplier_policy=ExpectedLossBudgetPolicy(budget_fraction=args.budget),
        consumer_policy=ExpectedLossBudgetPolicy(budget_fraction=args.budget),
    )
    print(plan.describe())
    if plan.sequence is None:
        print("No schedule satisfies the partners' accepted exposures.")
        return 1
    print()
    print(plan.sequence.describe())
    print()
    print(verify_sequence(plan.sequence, plan.requirements).describe())
    return 0 if plan.agreed else 1


def _rebalance_line(store) -> Optional[str]:
    """Live-split activity of the shared complaint store, if it rebalances.

    The store is the only backend sharding and rebalancing apply to; each
    peer's private backends are plain.
    """
    if not isinstance(store, ShardedBackend) or store.rebalance_policy is None:
        return None
    return (
        f"auto: {len(store.rebalance_events)} live splits, store now "
        f"{store.num_shards} shards, split pause "
        f"{store.rebalance_seconds:.3f}s"
    )


def _print_result(
    scenario_name: str,
    backend: str,
    result,
    store,
    repair: str,
    rebalance_line: Optional[str],
    telemetry_lines: Optional[List[str]],
) -> None:
    print(f"Scenario:          {scenario_name}")
    # One canonical config string from the store itself — the effective
    # backend deployment (shards, router, rebalance), not a re-derivation
    # from CLI flags.
    print(f"Backend:           {backend} (store: {store.describe_config()})")
    print(f"Strategy:          {result.strategy_name}")
    print(f"Attempted trades:  {result.accounts.attempted}")
    print(f"Completed trades:  {result.accounts.completed}")
    print(f"Declined trades:   {result.accounts.declined}")
    print(f"Defections:        {result.accounts.defections}")
    print(f"Completion rate:   {result.completion_rate:.3f}")
    print(f"Honest welfare:    {result.honest_welfare():.1f}")
    print(f"Honest losses:     {result.honest_losses():.1f}")
    if rebalance_line is not None:
        print(f"Shard rebalance:   {rebalance_line}")
    counters = result.evidence_counters
    if counters is not None:
        print(
            "Evidence plane:    "
            f"{counters.sent} sent, {counters.delivered} delivered, "
            f"{counters.dropped} dropped, {counters.in_flight} in flight "
            f"(delivery ratio {result.evidence_delivery_ratio:.3f}, "
            f"effective {result.evidence_effective_delivery_ratio:.3f})"
        )
        if repair != "off":
            print(
                "Evidence repair:   "
                f"{repair}: {counters.repair_messages} repair messages, "
                f"{counters.duplicates_suppressed} duplicates suppressed, "
                f"{counters.entries_expired} entries expired, convergence "
                f"lag p50/p95 {counters.convergence_lag_p50:.1f}/"
                f"{counters.convergence_lag_p95:.1f} rounds"
            )
    if telemetry_lines:
        print("Telemetry:")
        for line in telemetry_lines:
            print(f"  {line}")


def _command_list_scenarios(args: argparse.Namespace) -> int:
    rows = {
        name: row
        for name, row in SCENARIOS.items()
        if args.tag is None or args.tag in row.tags
    }
    if not rows:
        print(f"no scenarios tagged {args.tag!r}")
        return 1
    width = max(len(name) for name in rows)
    print(f"{len(rows)} registered scenario(s):")
    for name, row in rows.items():
        tags = f"  [{', '.join(row.tags)}]" if row.tags else ""
        print(f"  {name:<{width}}  {row.summary}{tags}")
    print(f"trust backends: {', '.join(BACKEND_CHOICES)}")
    return 0


def _build_scenario_from_args(
    args: argparse.Namespace, telemetry=None
):
    """Build the scenario a ``run``/``audit`` invocation names."""
    return build_registered_scenario(
        args.scenario,
        backend=args.backend,
        size=args.size,
        rounds=args.rounds,
        dishonest_fraction=args.dishonest,
        seed=args.seed,
        evidence_mode=args.evidence_mode,
        evidence_latency=args.evidence_latency,
        evidence_loss=args.evidence_loss,
        evidence_repair=args.evidence_repair,
        gossip_period=args.gossip_period,
        gossip_fanout=args.gossip_fanout,
        witness_count=args.witnesses,
        shards=args.shards,
        shard_router=args.shard_router,
        rebalance=args.rebalance,
        rebalance_threshold=args.rebalance_threshold,
        max_shards=args.max_shards,
        telemetry=telemetry,
    )


def _drain_repair(scenario, simulation) -> None:
    if scenario.config.evidence_repair != "off":
        # "Effective delivery" is a *post-repair* number: give the repair
        # policy bounded extra ticks past the horizon to converge before
        # reporting it (the counters object is shared with the result).
        simulation.evidence_plane.drain(max_ticks=200)


def _command_run(args: argparse.Namespace) -> int:
    strategy = STRATEGY_FACTORIES[args.strategy]()
    registry, jsonl_path = create_registry(args.telemetry)
    scenario = _build_scenario_from_args(
        args, telemetry=registry if registry.enabled else None
    )
    simulation = scenario.simulation(strategy)
    result = simulation.run()
    _drain_repair(scenario, simulation)
    store = scenario.complaint_store
    telemetry_lines: Optional[List[str]] = None
    if registry.enabled:
        telemetry_lines = list(registry.summary_lines())
        if jsonl_path is not None:
            registry.write_jsonl(jsonl_path)
            telemetry_lines.append(f"trace written to {jsonl_path}")
    _print_result(
        # Report what actually ran: the scenario may supply the backend
        # (partition-heal -> complaint, fluctuating-behaviour -> decay) and
        # scenarios may upgrade the repair policy (partition-heal -> gossip)
        # or the shard router (rebalance auto upgrades hash -> ring, which
        # the built store's canonical config string reflects).
        args.scenario, scenario.trust_method, result,
        store=store,
        repair=scenario.config.evidence_repair,
        rebalance_line=_rebalance_line(store),
        telemetry_lines=telemetry_lines,
    )
    return 0


def _command_audit(args: argparse.Namespace) -> int:
    strategy = STRATEGY_FACTORIES[args.strategy]()
    scenario = _build_scenario_from_args(args)
    simulation = scenario.simulation(strategy)
    trail = EvidenceAuditTrail()
    simulation.evidence_plane.attach_audit(trail)
    simulation.run()
    # Flush in-flight evidence and let any repair policy converge: the
    # audit compares settled state, not a mid-flight snapshot.
    simulation.evidence_plane.drain(max_ticks=200)
    store = scenario.complaint_store
    if args.inject == "double-apply":
        injected = inject_double_apply(store)
    elif args.inject == "drop":
        injected = inject_dropped_entry(store)
    else:
        injected = None
    report = reconcile(
        trail,
        # The plane was drained above, so journaled entries must all be
        # applied or expired — hold the journal-coverage check to that.
        require_settled=True,
        **collect_audit_inputs(simulation, store=store),
    )
    print(f"Scenario:          {args.scenario}")
    print(f"Backend:           {scenario.trust_method} "
          f"(store: {store.describe_config()})")
    if injected is not None:
        print(
            f"Injected fault:    {args.inject} "
            f"({injected[0]} -> {injected[1]} @ {injected[2]:g})"
        )
    print(report.render())
    if args.json is not None:
        payload = report.to_payload(name=f"audit_{args.scenario}")
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0 if report.passed else 1


def _command_tolerance(args: argparse.Namespace) -> int:
    bundle = _parse_bundle(args.items)
    price = _default_price(bundle, args.price)
    tolerance = required_total_tolerance(bundle, price)
    threshold = cooperation_discount_threshold(bundle, price)
    print(f"Bundle:                     {bundle}")
    print(f"Price:                      {price:.3f}")
    print(f"Required total tolerance:   {tolerance:.3f}")
    if threshold is None:
        print("Repeated-exchange cooperation: not sustainable at this price")
    else:
        print(f"Cooperation discount threshold: {threshold:.3f}")
    return 0


def _command_check(args: argparse.Namespace) -> int:
    from repro.check import (
        default_rules,
        load_baseline,
        render_json,
        render_text,
        rule_summaries,
        run_check,
        write_baseline,
    )

    if args.root is not None:
        root = Path(args.root)
    else:
        import repro

        root = Path(repro.__file__).resolve().parent
    if not root.exists():
        print(f"error: scan root {root} does not exist", file=sys.stderr)
        return 2
    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_baseline(Path(args.baseline))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2
    result = run_check(
        root, default_rules(), rule_filter=args.rule, baseline=baseline
    )
    if args.write_baseline is not None:
        write_baseline(Path(args.write_baseline), result.findings)
        print(
            "baseline with {} finding(s) written to {}".format(
                len(result.findings), args.write_baseline
            )
        )
        return 0
    summaries = rule_summaries()
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_json(result, summaries))
    if args.output_format == "json":
        sys.stdout.write(render_json(result, summaries))
    else:
        sys.stdout.write(render_text(result, summaries))
    return 0 if result.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "plan":
            return _command_plan(args)
        if args.command == "list-scenarios":
            return _command_list_scenarios(args)
        if args.command == "run":
            return _command_run(args)
        if args.command == "audit":
            return _command_audit(args)
        if args.command == "check":
            return _command_check(args)
        return _command_tolerance(args)
    except (ReproError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
