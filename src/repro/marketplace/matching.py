"""Matching consumers to listings.

Two mechanisms are provided: blind random matching (consumers do not use
reputation for discovery) and trust-weighted matching, where a consumer
prefers suppliers it estimates to be trustworthy — the "discover someone
based on a profile (skills, reputations)" part of the paper's motivation.

Trust-weighted matching reads one round's trust as a matrix: a row per
consumer, a column per listing, filled by one round-level read
(:func:`~repro.simulation.peer.trust_rows` in a simulation).  Selection
then works on arrays: a boolean availability mask instead of removing
taken listings from a list, each pick's weights taken from its consumer's
row and floored alone, and a running sum searched for the random draw
instead of a per-listing loop.  It stays bit-identical
to that loop for the same scores and random state; the argument is in
:func:`trust_weighted_matching`'s docstring.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.numeric import total_rows
from repro.exceptions import MarketplaceError
from repro.marketplace.listing import Listing

__all__ = ["Match", "random_matching", "trust_weighted_matching"]

Match = Tuple[str, Listing]


def random_matching(
    consumer_ids: Sequence[str],
    listings: Sequence[Listing],
    rng: random.Random,
    allow_self_trade: bool = False,
) -> List[Match]:
    """Assign each consumer to a random listing (at most one per listing).

    Consumers that cannot be assigned (no listing left, or only their own
    listings) stay unmatched.
    """
    available = list(listings)
    rng.shuffle(available)
    matches: List[Match] = []
    consumers = list(consumer_ids)
    rng.shuffle(consumers)
    for consumer_id in consumers:
        chosen_index: Optional[int] = None
        for index, listing in enumerate(available):
            if not allow_self_trade and listing.supplier_id == consumer_id:
                continue
            chosen_index = index
            break
        if chosen_index is None:
            continue
        matches.append((consumer_id, available.pop(chosen_index)))
    return matches


def trust_weighted_matching(
    consumer_ids: Sequence[str],
    listings: Sequence[Listing],
    scores: np.ndarray,
    rng: random.Random,
    exploration: float = 0.1,
    allow_self_trade: bool = False,
) -> List[Match]:
    """Consumers pick suppliers with probability proportional to trust.

    ``scores[i, j]`` is consumer ``consumer_ids[i]``'s current trust in the
    supplier of ``listings[j]``: one float row per consumer, one column per
    listing.  ``exploration`` is a floor weight that keeps unknown or
    distrusted suppliers discoverable (otherwise newcomers could never build
    a reputation).  Consumers choose in a shuffled order; each listing is
    taken at most once, and a consumer never takes its own listing unless
    ``allow_self_trade``.

    Each consumer's weights are the floored scores of the listings still
    available, in listing order, taken from its row for that pick alone;
    the pick is one ``rng.uniform(0, total)`` draw located on their running
    sum (``rng.choice`` when every weight is zero).  Same scores, same
    ``rng`` state: same matches and same ``rng`` state afterwards as the
    per-listing Python loop this replaced, because

    - ``np.fmax(t, exploration)`` is ``max(exploration, t)``, NaN scores
      included (both give the floor), up to the sign of a zero weight,
      which no sum or comparison below can tell;
    - the total is :func:`~repro.core.numeric.total_rows` of the weights,
      read off the running sum the search uses; it rounds as the built-in
      ``sum`` does, so an interpreter whose float ``sum`` is compensated
      (3.12) draws the same ``pick``;
    - ``np.cumsum`` adds left to right like the loop's ``cumulative +=``,
      and ``searchsorted(..., side="left")`` finds the first running sum
      ``>= pick``; a pick past the end takes the last candidate, as the
      loop's fall-through did;
    - ``shuffle`` and ``choice`` draw by length only, so shuffling consumer
      indices and choosing among candidate indices consumes the same
      random numbers as shuffling ids and choosing listings.
    """
    if not exploration >= 0:
        raise MarketplaceError(f"exploration must be >= 0, got {exploration}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(consumer_ids), len(listings)):
        raise MarketplaceError(
            f"scores must have shape ({len(consumer_ids)}, {len(listings)}), "
            f"got {scores.shape}"
        )
    # Suppliers and consumers share one integer code per peer id, so the
    # own-listing test is one integer comparison per listing.
    codes: Dict[str, int] = {}
    supplier_codes = np.fromiter(
        (codes.setdefault(listing.supplier_id, len(codes)) for listing in listings),
        dtype=np.int64,
        count=len(listings),
    )
    available = np.ones(len(listings), dtype=bool)
    matches: List[Match] = []
    order = list(range(len(consumer_ids)))
    rng.shuffle(order)
    for row in order:
        consumer_id = consumer_ids[row]
        eligible = available
        if not allow_self_trade:
            own = codes.get(consumer_id)
            if own is not None:
                eligible = available & (supplier_codes != own)
        candidates = eligible.nonzero()[0]
        if not len(candidates):
            continue
        # Only this pick's weights are taken and floored, in place.
        weights = scores[row].take(candidates)
        np.fmax(weights, exploration, out=weights)
        running = weights.cumsum()
        total_weight = float(total_rows(weights, running=running))
        if total_weight <= 0:
            chosen = rng.choice(candidates)
        else:
            pick = rng.uniform(0.0, total_weight)
            position = int(running.searchsorted(pick, side="left"))
            chosen = candidates[min(position, len(candidates) - 1)]
        available[chosen] = False
        matches.append((consumer_id, listings[chosen]))
    return matches
