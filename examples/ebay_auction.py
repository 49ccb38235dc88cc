#!/usr/bin/env python3
"""eBay-style auction scenario: one risky trade, then a whole community.

Part 1 walks through a single exchange between a seller with a mixed
reputation and a buyer, showing how the reputation records turn into a trust
estimate, how the trust estimate bounds the accepted exposure, and what
happens when the schedule is executed against a seller that defects whenever
it is profitable.

Part 2 runs the full eBay community scenario with several exchange
strategies and prints the comparison table (a small version of Table 2 of the
designed evaluation).

Run with:  python examples/ebay_auction.py
"""

import random

from repro.analysis.tables import Table
from repro.baselines import GoodsFirstStrategy, SafeOnlyStrategy
from repro.core.decision import ExpectedLossBudgetPolicy
from repro.core.negotiation import AlternatingOffersNegotiation
from repro.core.trust_aware import plan_trust_aware_exchange
from repro.marketplace import TrustAwareStrategy, execute_sequence
from repro.reputation import InteractionRecord
from repro.simulation import CommunityPeer
from repro.simulation.behaviors import HonestBehavior, RationalDefectorBehavior
from repro.workloads import build_registered_scenario, workload_bundle


def single_auction() -> None:
    print("=" * 70)
    print("Part 1: one auction with a seller of mixed reputation")
    print("=" * 70)

    # The buyer has seen the seller behave well eight times and badly twice.
    buyer = CommunityPeer("buyer")
    for index in range(10):
        buyer.observe_outcome(
            InteractionRecord(
                supplier_id="seller",
                consumer_id="buyer",
                completed=index >= 2,
                defector="supplier" if index < 2 else None,
                value=20.0,
                timestamp=float(index),
            )
        )
    trust_in_seller = buyer.trust_in("seller")
    print(f"Buyer's trust in the seller: {trust_in_seller:.3f}")

    # The auctioned goods and the negotiated price.
    bundle = workload_bundle("ebay", size=5, seed=4)
    negotiation = AlternatingOffersNegotiation(
        supplier_concession=0.25, consumer_concession=0.25
    )
    outcome = negotiation.negotiate(bundle)
    print(f"Negotiated price: {outcome.price:.2f} after {outcome.rounds} rounds")

    plan = plan_trust_aware_exchange(
        bundle,
        outcome.price,
        supplier_trust_in_consumer=0.9,
        consumer_trust_in_supplier=trust_in_seller,
        supplier_policy=ExpectedLossBudgetPolicy(budget_fraction=0.5),
        consumer_policy=ExpectedLossBudgetPolicy(budget_fraction=0.5),
    )
    print(plan.describe())
    if not plan.agreed:
        print("Trade declined: trust too low for the required exposure.")
        return

    # Execute against a seller that defects whenever it is myopically
    # profitable.  The buyer's loss stays within the exposure it accepted.
    result = execute_sequence(
        plan.sequence,
        supplier_behavior=RationalDefectorBehavior(),
        consumer_behavior=HonestBehavior(),
        rng=random.Random(1),
    )
    print(f"Exchange completed: {result.completed}")
    print(f"Buyer payoff: {result.consumer_payoff:.2f}")
    print(
        "Buyer's accepted exposure was "
        f"{plan.requirements.consumer_accepted_exposure:.2f}"
    )
    print()


def community_comparison() -> None:
    print("=" * 70)
    print("Part 2: the eBay community under different exchange strategies")
    print("=" * 70)
    table = Table(
        ["strategy", "completion rate", "honest welfare", "honest losses"],
        title="eBay community (20 peers, 25 rounds, 30% dishonest)",
    )
    for name, strategy in [
        ("trust-aware", TrustAwareStrategy()),
        ("safe-only", SafeOnlyStrategy()),
        ("goods-first", GoodsFirstStrategy()),
    ]:
        scenario = build_registered_scenario(
            "ebay", size=20, rounds=25, dishonest_fraction=0.3, seed=2
        )
        result = scenario.simulation(strategy).run()
        table.add_row(
            name,
            result.completion_rate,
            result.honest_welfare(),
            result.honest_losses(),
        )
    print(table.render())


def main() -> None:
    single_auction()
    community_comparison()


if __name__ == "__main__":
    main()
