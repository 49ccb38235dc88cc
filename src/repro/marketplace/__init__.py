"""Marketplace layer: listings, matching, exchange execution and accounting."""

from repro.marketplace.accounting import CommunityAccounts, Ledger, LedgerEntry
from repro.marketplace.listing import Listing
from repro.marketplace.matching import random_matching, trust_weighted_matching
from repro.marketplace.protocol import ExchangeOutcome, run_exchange, run_exchanges
from repro.marketplace.strategy import (
    ExchangeStrategy,
    StrategyContext,
    TrustAwareStrategy,
)
from repro.marketplace.transaction import (
    TransactionResult,
    execute_many,
    execute_sequence,
)

__all__ = [
    "Listing",
    "random_matching",
    "trust_weighted_matching",
    "StrategyContext",
    "ExchangeStrategy",
    "TrustAwareStrategy",
    "TransactionResult",
    "execute_sequence",
    "execute_many",
    "ExchangeOutcome",
    "run_exchange",
    "run_exchanges",
    "LedgerEntry",
    "Ledger",
    "CommunityAccounts",
]
