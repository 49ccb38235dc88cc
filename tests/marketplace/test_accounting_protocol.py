"""Unit tests for accounting (ledger, community accounts) and the protocol."""

import random

import pytest

from repro.core.exchange import Role
from repro.core.goods import Good, GoodsBundle
from repro.exceptions import MarketplaceError
from repro.marketplace.accounting import CommunityAccounts, Ledger
from repro.marketplace.protocol import ExchangeOutcome, run_exchange
from repro.marketplace.strategy import StrategyContext, TrustAwareStrategy
from repro.marketplace.transaction import TransactionResult
from repro.baselines import GoodsFirstStrategy, SafeOnlyStrategy
from repro.simulation.behaviors import HonestBehavior, RationalDefectorBehavior


def completed_result():
    return TransactionResult(
        completed=True,
        defector=None,
        defection_step=None,
        supplier_payoff=2.0,
        consumer_payoff=3.0,
        price=7.0,
        paid=7.0,
        goods_delivered=2,
        goods_total=2,
    )


def defected_result():
    return TransactionResult(
        completed=False,
        defector=Role.CONSUMER,
        defection_step=2,
        supplier_payoff=-5.0,
        consumer_payoff=10.0,
        price=7.0,
        paid=0.0,
        goods_delivered=2,
        goods_total=2,
    )


class TestLedger:
    def test_record_both_sides(self):
        ledger = Ledger()
        ledger.record(completed_result(), "sup", "con", timestamp=1.0)
        assert len(ledger) == 2
        assert ledger.balance("sup") == pytest.approx(2.0)
        assert ledger.balance("con") == pytest.approx(3.0)
        assert ledger.balances() == {"sup": 2.0, "con": 3.0}
        assert len(ledger.entries_of("sup")) == 1

    def test_victim_losses(self):
        ledger = Ledger()
        ledger.record(defected_result(), "sup", "con")
        assert ledger.victim_losses("sup") == pytest.approx(5.0)
        assert ledger.victim_losses("con") == 0.0
        assert ledger.victim_losses() == pytest.approx(5.0)

    def test_same_agent_rejected(self):
        with pytest.raises(MarketplaceError):
            Ledger().record(completed_result(), "x", "x")

    def test_unknown_agent_balance_zero(self):
        assert Ledger().balance("nobody") == 0.0


class TestCommunityAccounts:
    def test_counters(self):
        accounts = CommunityAccounts()
        accounts.record_executed(completed_result())
        accounts.record_executed(defected_result())
        accounts.record_declined()
        assert accounts.attempted == 3
        assert accounts.executed == 2
        assert accounts.completed == 1
        assert accounts.declined == 1
        assert accounts.defections == 1
        assert accounts.consumer_defections == 1
        assert accounts.completion_rate == pytest.approx(1 / 3)
        assert accounts.execution_rate == pytest.approx(2 / 3)
        assert accounts.defection_rate == pytest.approx(0.5)
        assert accounts.victim_losses == pytest.approx(5.0)
        assert accounts.total_welfare == pytest.approx(5.0 + 5.0)

    def test_merge(self):
        a = CommunityAccounts()
        a.record_executed(completed_result())
        b = CommunityAccounts()
        b.record_declined()
        merged = a.merge(b)
        assert merged.attempted == 2
        assert merged.completed == 1
        assert merged.declined == 1

    def test_empty_rates(self):
        accounts = CommunityAccounts()
        assert accounts.completion_rate == 0.0
        assert accounts.defection_rate == 0.0
        assert accounts.mean_welfare_per_attempt == 0.0


class TestRunExchange:
    def bundle(self):
        return GoodsBundle(
            [
                Good(good_id="a", supplier_cost=2.0, consumer_value=4.0),
                Good(good_id="b", supplier_cost=3.0, consumer_value=6.0),
            ]
        )

    def planned(self, strategy, context=None):
        return strategy.plan(
            self.bundle(), 7.0, context if context is not None else StrategyContext()
        )

    def test_successful_exchange_produces_record(self):
        outcome = run_exchange(
            supplier_id="sup",
            consumer_id="con",
            sequence=self.planned(GoodsFirstStrategy()),
            supplier_behavior=HonestBehavior(),
            consumer_behavior=HonestBehavior(),
            rng=random.Random(0),
            timestamp=4.0,
        )
        assert outcome.scheduled
        assert outcome.completed
        assert outcome.price == 7.0
        assert outcome.record is not None
        assert outcome.record.completed
        assert outcome.record.value == 7.0
        assert outcome.record.timestamp == 4.0
        assert outcome.welfare == pytest.approx(5.0)
        assert outcome.potential_welfare == pytest.approx(5.0)

    def test_declined_exchange_has_no_record(self):
        # No penalties: not schedulable, so nothing reaches execution.
        assert self.planned(SafeOnlyStrategy()) is None
        outcome = ExchangeOutcome.unscheduled("sup", "con", self.bundle(), 7.0, 2.0)
        assert outcome.declined
        assert outcome.record is None
        assert outcome.result is None
        assert outcome.timestamp == 2.0
        assert outcome.welfare == 0.0
        assert outcome.potential_welfare == pytest.approx(5.0)

    def test_defection_recorded_with_defector_role(self):
        outcome = run_exchange(
            supplier_id="sup",
            consumer_id="con",
            sequence=self.planned(GoodsFirstStrategy()),
            supplier_behavior=HonestBehavior(),
            consumer_behavior=RationalDefectorBehavior(),
            rng=random.Random(0),
        )
        assert outcome.scheduled and not outcome.completed
        assert outcome.record is not None
        assert outcome.record.defector == "consumer"
        assert not outcome.record.consumer_honest

    def test_same_agent_rejected(self):
        with pytest.raises(MarketplaceError):
            run_exchange(
                supplier_id="x",
                consumer_id="x",
                sequence=self.planned(GoodsFirstStrategy()),
                supplier_behavior=HonestBehavior(),
                consumer_behavior=HonestBehavior(),
                rng=random.Random(0),
            )

    def test_trust_aware_strategy_in_protocol(self):
        sequence = self.planned(
            TrustAwareStrategy(),
            StrategyContext(
                supplier_trust_in_consumer=0.9, consumer_trust_in_supplier=0.9
            ),
        )
        outcome = run_exchange(
            supplier_id="sup",
            consumer_id="con",
            sequence=sequence,
            supplier_behavior=HonestBehavior(),
            consumer_behavior=HonestBehavior(),
            rng=random.Random(0),
        )
        assert outcome.scheduled
        assert outcome.completed
