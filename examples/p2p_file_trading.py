#!/usr/bin/env python3
"""P2P file trading with a decentralised (P-Grid) reputation store.

The paper's second motivating setting: exchanges of MP3 files for money in a
peer-to-peer system, with the complaint-based reputation scheme of Aberer &
Despotovic stored on a P-Grid.  The example

1. builds a P-Grid storage network and shows how complaints are routed to and
   retrieved from responsible peers (including a dishonest storage peer that
   forges its answers, which the replica-median aggregation tolerates),
2. derives complaint-based trust assessments for a cheating peer and an
   honest one, and
3. runs the ``p2p-file-trading`` community scenario with the trust-aware
   strategy and prints how the community evolves.

Run with:  python examples/p2p_file_trading.py
"""

from repro.analysis.figures import Figure
from repro.marketplace import TrustAwareStrategy
from repro.pgrid import PGridNetwork
from repro.reputation import DistributedReputationStore
from repro.trust.complaint import ComplaintTrustModel
from repro.workloads import build_registered_scenario


def distributed_reputation_demo() -> None:
    print("=" * 70)
    print("Part 1: complaints on a decentralised storage substrate")
    print("=" * 70)
    network = PGridNetwork([f"storage-{index}" for index in range(24)], seed=3)
    network.build("balanced", depth=3)
    print(
        f"P-Grid built: {len(network)} peers, "
        f"replication factor {network.replication_factor():.2f}"
    )

    store = DistributedReputationStore(network)
    trust_model = ComplaintTrustModel(
        store=store, metric_mode="balanced", tolerance_factor=2.0
    )

    # Victims of "freerider" file complaints; "goodpeer" collects one unfair
    # complaint from a grumpy partner.
    for index in range(6):
        trust_model.file_complaint(f"victim-{index}", "freerider", timestamp=float(index))
    trust_model.file_complaint("grumpy", "goodpeer", timestamp=7.0)

    for agent in ("freerider", "goodpeer", "newcomer"):
        assessment = trust_model.assess(agent)
        print(
            f"  {agent:10s} complaints received={assessment.counts.received} "
            f"metric={assessment.metric:5.1f} trust={assessment.trust:.3f} "
            f"trustworthy={assessment.trustworthy}"
        )

    # One replica holding the freerider's record starts lying; the median
    # over replicas still reports the truth.
    key = network.binary_key(DistributedReputationStore.ABOUT_PREFIX + "freerider")
    liars = 0
    for peer_id, peer in network.peers.items():
        if peer.is_responsible_for(key) and liars < 1:
            network.set_tamper_hook(peer_id, lambda k, values: [])
            liars += 1
    reports = store.complaint_reports_about("freerider")
    aggregated = trust_model.assess_from_reports("freerider", reports)
    print(
        f"  per-replica reports {reports} -> aggregated complaints received "
        f"{aggregated.counts.received} (one replica forged its answer)"
    )
    print(f"  routing cost so far: mean {network.stats.mean_hops:.2f} hops per operation")
    print()


def community_run() -> None:
    print("=" * 70)
    print("Part 2: the P2P file-trading community with trust-aware exchanges")
    print("=" * 70)
    scenario = build_registered_scenario(
        "p2p-file-trading", size=24, rounds=30, dishonest_fraction=0.25, seed=5
    )
    result = scenario.simulation(TrustAwareStrategy()).run()
    print(f"Attempted trades:  {result.accounts.attempted}")
    print(f"Completed trades:  {result.accounts.completed}")
    print(f"Completion rate:   {result.completion_rate:.3f}")
    print(f"Honest welfare:    {result.honest_welfare():.1f}")
    print(f"Honest losses:     {result.honest_losses():.1f}")

    figure = Figure(
        "Per-round completed trades", x_label="round", y_label="completed"
    )
    series = figure.new_series("completed trades")
    for round_stats in result.rounds:
        series.add(round_stats.round_index, round_stats.accounts.completed)
    print()
    print(figure.render_ascii(width=60, height=10))


def main() -> None:
    distributed_reputation_demo()
    community_run()


if __name__ == "__main__":
    main()
