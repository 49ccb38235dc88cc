"""Unit tests for listings and matching."""

import random

import numpy as np
import pytest

from repro.core.goods import GoodsBundle
from repro.exceptions import MarketplaceError
from repro.marketplace.listing import Listing
from repro.marketplace.matching import random_matching, trust_weighted_matching


def bundle():
    return GoodsBundle.from_valuations([1.0, 2.0], [2.0, 3.0])


def make_listing(supplier_id, listing_id=None):
    return Listing(
        listing_id=listing_id or f"{supplier_id}-r0",
        supplier_id=supplier_id,
        bundle=bundle(),
    )


class TestListing:
    def test_minimum_acceptable_price(self):
        listing = Listing("s1-r0", "s1", bundle())
        assert listing.minimum_acceptable_price == pytest.approx(3.0)
        reserved = Listing("s1-r0", "s1", bundle(), reserve_price=5.0)
        assert reserved.minimum_acceptable_price == pytest.approx(5.0)

    def test_invalid_listing(self):
        with pytest.raises(MarketplaceError):
            Listing(listing_id="", supplier_id="s", bundle=bundle())
        with pytest.raises(MarketplaceError):
            Listing(listing_id="l", supplier_id="", bundle=bundle())
        with pytest.raises(MarketplaceError):
            Listing(listing_id="l", supplier_id="s", bundle=GoodsBundle([]))
        with pytest.raises(MarketplaceError):
            Listing(listing_id="l", supplier_id="s", bundle=bundle(), reserve_price=-1.0)


class TestRandomMatching:
    def test_each_listing_used_at_most_once(self):
        listings = [make_listing(f"s{i}") for i in range(5)]
        consumers = [f"c{i}" for i in range(10)]
        matches = random_matching(consumers, listings, random.Random(0))
        used = [listing.listing_id for _, listing in matches]
        assert len(used) == len(set(used))
        assert len(matches) <= 5

    def test_no_self_trade_by_default(self):
        listings = [make_listing("alice")]
        matches = random_matching(["alice"], listings, random.Random(0))
        assert matches == []
        matches = random_matching(
            ["alice"], listings, random.Random(0), allow_self_trade=True
        )
        assert len(matches) == 1

    def test_empty_inputs(self):
        assert random_matching([], [], random.Random(0)) == []


class TestTrustWeightedMatching:
    def test_prefers_trusted_suppliers(self):
        listings = [make_listing("trusted"), make_listing("shady")]
        counts = {"trusted": 0, "shady": 0}
        for seed in range(200):
            matches = trust_weighted_matching(
                ["consumer"],
                listings,
                scores=np.array([[0.9, 0.05]]),
                rng=random.Random(seed),
                exploration=0.05,
            )
            assert len(matches) == 1
            counts[matches[0][1].supplier_id] += 1
        assert counts["trusted"] > counts["shady"] * 3

    def test_exploration_keeps_unknowns_reachable(self):
        listings = [make_listing("unknown")]
        matches = trust_weighted_matching(
            ["consumer"],
            listings,
            scores=np.zeros((1, 1)),
            rng=random.Random(1),
            exploration=0.1,
        )
        assert len(matches) == 1

    @pytest.mark.parametrize("exploration", [-0.1, float("nan")])
    def test_invalid_exploration(self, exploration):
        with pytest.raises(MarketplaceError):
            trust_weighted_matching(
                ["c"], [make_listing("s")], np.full((1, 1), 0.5), random.Random(0),
                exploration=exploration,
            )

    def test_no_self_trade(self):
        listings = [make_listing("alice")]
        matches = trust_weighted_matching(
            ["alice"], listings, np.ones((1, 1)), random.Random(0)
        )
        assert matches == []

    def test_score_matrix_shape_is_checked(self):
        listings = [make_listing("s1"), make_listing("s2")]
        with pytest.raises(MarketplaceError):
            trust_weighted_matching(
                ["c1", "c2"], listings, np.ones((2, 1)), random.Random(0)
            )
