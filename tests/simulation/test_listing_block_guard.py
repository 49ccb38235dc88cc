"""Complexity guard of the round's listings (deterministic, no timing).

A sync round draws its suppliers' bundles as one ``sample_columns`` block
and makes a listing for each row that is a rational trade.  The bundles
hold their valuation rows; nothing in the round loop reads a bundle's
goods, so the whole run constructs no ``Good``.  The listings are exactly
the block's rational rows, in supplier order, and their ids derive from
the supplier and the round, so same-seed runs repeat them.
"""

import math
from collections import Counter

import numpy as np
import pytest

from repro.core.goods import Good, GoodsBundle
from repro.exceptions import InvalidGoodError
from repro.core.numeric import EPSILON, total
from repro.core.valuation import ValuationModel
from repro.simulation.community import CommunitySimulation
from repro.workloads.registry import build_registered_scenario


def _record_rounds(monkeypatch):
    """Per round: the suppliers, the sampled block and the listings made."""
    rounds = []
    original_sample = ValuationModel.sample_columns
    original_build = CommunitySimulation._build_listings

    def recording_sample(self, rng, n, size):
        costs, values = original_sample(self, rng, n, size)
        rounds[-1]["block"].append((costs, values))
        return costs, values

    def recording_build(self, round_index):
        suppliers = [peer.peer_id for peer in self.peers if peer.supplies_goods]
        rounds.append({"suppliers": suppliers, "block": []})
        rounds[-1]["listings"] = original_build(self, round_index)
        return rounds[-1]["listings"]

    monkeypatch.setattr(ValuationModel, "sample_columns", recording_sample)
    monkeypatch.setattr(CommunitySimulation, "_build_listings", recording_build)
    return rounds


def test_sync_rounds_build_no_goods_and_list_the_rational_rows(monkeypatch):
    scenario = build_registered_scenario("flash-crowd", size=40, rounds=5, seed=0)
    simulation = scenario.simulation()
    assert simulation.config.evidence_mode == "sync"
    calls = Counter()
    original_post_init = Good.__post_init__

    def counting_post_init(self):
        calls["good"] += 1
        original_post_init(self)

    monkeypatch.setattr(Good, "__post_init__", counting_post_init)
    rounds = _record_rounds(monkeypatch)
    result = simulation.run()

    assert result.accounts.attempted > 0
    assert len(rounds) == 5
    for round_index, record in enumerate(rounds):
        # One block per round, one row per supplier.
        [(costs, values)] = record["block"]
        assert costs.shape == (len(record["suppliers"]), 6)
        rational = [
            row
            for row in range(len(costs))
            if total(values[row].tolist()) - total(costs[row].tolist()) >= -EPSILON
        ]
        listings = record["listings"]
        assert 0 < len(listings) == len(rational)
        for row, listing in zip(rational, listings):
            supplier_id = record["suppliers"][row]
            assert listing.supplier_id == supplier_id
            assert listing.listing_id == f"{supplier_id}-r{round_index}"
            listed_costs, listed_values = listing.bundle.valuation_rows
            assert listed_costs.tolist() == costs[row].tolist()
            assert listed_values.tolist() == values[row].tolist()
            assert listing.bundle.total_supplier_cost == total(costs[row].tolist())
            assert listing.bundle.total_consumer_value == total(values[row].tolist())
    assert calls["good"] == 0
    # The goods still build on demand, named by the listing.
    listing = rounds[-1]["listings"][0]
    assert listing.bundle.good_ids[0] == f"{listing.listing_id}-0"
    assert calls["good"] == len(listing.bundle)


def test_same_seed_simulations_repeat_their_listing_ids(monkeypatch):
    rounds = _record_rounds(monkeypatch)
    for _ in range(2):
        scenario = build_registered_scenario("flash-crowd", size=20, rounds=3, seed=4)
        scenario.simulation().run()
    ids = [
        [listing.listing_id for listing in record["listings"]] for record in rounds
    ]
    assert ids[:3] == ids[3:]
    assert all(ids)


def _listings_of_block(monkeypatch, costs, values):
    """``_build_listings`` over one crafted block, a row per supplier."""
    scenario = build_registered_scenario("flash-crowd", size=len(costs), rounds=1, seed=0)
    simulation = scenario.simulation()
    assert all(peer.supplies_goods for peer in simulation.peers)
    block = (np.array(costs, dtype=float), np.array(values, dtype=float))
    monkeypatch.setattr(
        type(simulation.config.valuation_model),
        "sample_columns",
        lambda self, rng, n, size: block,
    )
    return simulation._build_listings(0)


@pytest.mark.parametrize("bad", [-1.0, math.inf])
def test_a_row_with_an_invalid_valuation_raises_as_its_goods_do(monkeypatch, bad):
    good = ([1.0] * 6, [3.0] * 6)
    costs, values = [list(good[0]) for _ in range(4)], [list(good[1]) for _ in range(4)]
    # Row 2's consumer value is invalid, but the row is still a rational trade.
    values[2][3] = bad
    with pytest.raises(InvalidGoodError) as raised:
        _listings_of_block(monkeypatch, costs, values)
    with pytest.raises(InvalidGoodError) as expected:
        Good("x", supplier_cost=1.0, consumer_value=bad)
    assert str(raised.value).split(":", 1)[1] == str(expected.value).split(":", 1)[1]
    assert "-r0-3" in str(raised.value)
    # The per-row check the block check replaces raises the same way.
    with pytest.raises(InvalidGoodError):
        GoodsBundle.from_valuations(costs[2], values[2], "x")


def test_a_nan_row_is_no_rational_trade_and_lists_nothing(monkeypatch):
    costs = [[1.0] * 6 for _ in range(4)]
    values = [[3.0] * 6 for _ in range(4)]
    values[1][0] = math.nan
    listings = _listings_of_block(monkeypatch, costs, values)
    assert len(listings) == 3
    assert all(listing.supplier_id.endswith(("000", "002", "003")) for listing in listings)
    # Built on its own, a NaN row raises like its goods.
    with pytest.raises(InvalidGoodError):
        GoodsBundle.from_valuations(costs[1], values[1], "x")
