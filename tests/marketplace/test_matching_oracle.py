"""Oracle tests of the array-native trust-weighted matching.

``reference_matching`` below is the per-listing Python loop that
``trust_weighted_matching`` replaced: it asks a ``trust_of(consumer,
supplier)`` callable for every candidate, floors it with ``max``, walks a
running sum and removes the chosen listing from a list.  For the same scores
and the same random state the matrix version must return the same matches,
with the very same ``Listing`` objects, and leave the random generator in
the same state.  Scores are drawn at, just above and just below the
exploration floor, plus zeros and NaN, under this interpreter's ``sum`` and
the compensated ``sum`` of Python 3.12; the matching totals its weights with
the row kernel, which is patched to the one that rounds as each summation.
"""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.marketplace.matching as matching_module
from repro.core.goods import GoodsBundle
from repro.marketplace.listing import Listing
from repro.core.numeric import sequential_total_rows
from repro.marketplace.matching import trust_weighted_matching
from summation import ROW_KERNELS, SUMMATIONS, compensated_total

PEERS = ["p0", "p1", "p2", "p3", "p4", "p5"]


def reference_matching(
    consumer_ids,
    listings,
    trust_of,
    rng,
    exploration=0.1,
    allow_self_trade=False,
    summation=sum,
):
    """The callable-based matching loop the score-matrix version replaced."""
    available = list(listings)
    matches = []
    consumers = list(consumer_ids)
    rng.shuffle(consumers)
    for consumer_id in consumers:
        candidates = [
            listing
            for listing in available
            if allow_self_trade or listing.supplier_id != consumer_id
        ]
        if not candidates:
            continue
        weights = [
            max(exploration, trust_of(consumer_id, listing.supplier_id))
            for listing in candidates
        ]
        total = summation(weights)
        if total <= 0:
            chosen = rng.choice(candidates)
        else:
            pick = rng.uniform(0.0, total)
            cumulative = 0.0
            chosen = candidates[-1]
            for listing, weight in zip(candidates, weights):
                cumulative += weight
                if pick <= cumulative:
                    chosen = listing
                    break
        # ``list.remove`` compares with ``==``; listings are distinct values
        # here, so this removes exactly the chosen object.
        available.remove(chosen)
        matches.append((consumer_id, chosen))
    return matches


def make_listings(supplier_ids):
    bundle = GoodsBundle.from_valuations([1.0, 2.0], [2.0, 3.0])
    return [
        Listing(listing_id=f"l{index}", supplier_id=supplier_id, bundle=bundle)
        for index, supplier_id in enumerate(supplier_ids)
    ]


def score_matrix(consumer_ids, listings, trust):
    """``trust[(consumer, supplier)]`` laid out one row per consumer."""
    return np.array(
        [
            [trust[(consumer_id, listing.supplier_id)] for listing in listings]
            for consumer_id in consumer_ids
        ],
        dtype=np.float64,
    ).reshape(len(consumer_ids), len(listings))


def patched_kernel(summation):
    """Patch the matching's row kernel to the one rounding as ``summation``."""
    kernels = dict(ROW_KERNELS)
    kernels[left_to_right_total] = sequential_total_rows
    return mock.patch.object(matching_module, "total_rows", kernels[summation])


def by_identity(matches):
    return [(consumer_id, id(listing)) for consumer_id, listing in matches]


def assert_same_matching(
    consumer_ids, listings, trust, make_rng, exploration, allow_self_trade, summation
):
    expected_rng = make_rng()
    expected = reference_matching(
        consumer_ids,
        listings,
        lambda consumer_id, supplier_id: trust[(consumer_id, supplier_id)],
        expected_rng,
        exploration=exploration,
        allow_self_trade=allow_self_trade,
        summation=summation,
    )
    actual_rng = make_rng()
    with patched_kernel(summation):
        actual = trust_weighted_matching(
            consumer_ids,
            listings,
            score_matrix(consumer_ids, listings, trust),
            actual_rng,
            exploration=exploration,
            allow_self_trade=allow_self_trade,
        )
    assert by_identity(actual) == by_identity(expected)
    assert actual_rng.getstate() == expected_rng.getstate()


def near(value):
    """Floats at, just above and just below ``value``."""
    return [value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf)]


@st.composite
def matching_instances(draw):
    exploration = draw(st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0]))
    consumer_ids = draw(st.lists(st.sampled_from(PEERS), max_size=6, unique=True))
    # Repeated suppliers: one supplier may post several listings.
    supplier_ids = draw(st.lists(st.sampled_from(PEERS), max_size=8))
    special = near(exploration) + [0.0, math.nan]
    value = st.one_of(
        st.sampled_from(special),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    trust = {
        (consumer_id, supplier_id): draw(value)
        for consumer_id in consumer_ids
        for supplier_id in dict.fromkeys(supplier_ids)
    }
    return consumer_ids, supplier_ids, trust, exploration


@pytest.mark.parametrize("summation", SUMMATIONS)
@pytest.mark.parametrize("allow_self_trade", [False, True])
@settings(max_examples=150, deadline=None)
@given(instance=matching_instances(), seed=st.integers(0, 2**32 - 1))
def test_matrix_matching_equals_callable_loop(
    summation, allow_self_trade, instance, seed
):
    consumer_ids, supplier_ids, trust, exploration = instance
    assert_same_matching(
        consumer_ids,
        make_listings(supplier_ids),
        trust,
        lambda: random.Random(seed),
        exploration,
        allow_self_trade,
        summation,
    )


@pytest.mark.parametrize("summation", SUMMATIONS)
@pytest.mark.parametrize("allow_self_trade", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_all_zero_scores_without_exploration_choose_uniformly(
    summation, allow_self_trade, seed
):
    """``exploration=0`` and all-zero scores take the ``rng.choice`` branch."""
    consumer_ids = ["p0", "p1", "p2", "p3"]
    listings = make_listings(["p1", "p2", "p2", "p4", "p5"])
    trust = {
        (consumer_id, listing.supplier_id): 0.0
        for consumer_id in consumer_ids
        for listing in listings
    }
    assert_same_matching(
        consumer_ids,
        listings,
        trust,
        lambda: random.Random(seed),
        0.0,
        allow_self_trade,
        summation,
    )


class FixedPicks(random.Random):
    """A generator whose ``uniform`` returns fixed picks, in turn."""

    def __init__(self, picks):
        super().__init__(0)
        self._picks = list(picks)

    def uniform(self, a, b):
        return self._picks.pop(0)


@pytest.mark.parametrize("summation", SUMMATIONS)
def test_picks_on_running_sum_boundaries_and_past_the_end(summation):
    """A pick equal to a running sum takes that listing; past the end, the last."""
    weights = [0.1, 0.2, 0.3, 0.7]
    running = list(np.cumsum(weights))
    listings = make_listings(["s0", "s1", "s2", "s3"])
    trust = {
        ("c", listing.supplier_id): weight for listing, weight in zip(listings, weights)
    }
    for pick in running + [math.nextafter(running[-1], math.inf), 0.0]:
        assert_same_matching(
            ["c"],
            listings,
            trust,
            lambda: FixedPicks([pick]),
            0.0,
            False,
            summation,
        )
    matches = trust_weighted_matching(
        ["c"],
        listings,
        np.array([weights]),
        FixedPicks([math.nextafter(running[-1], math.inf)]),
        exploration=0.0,
    )
    assert matches[0][1] is listings[-1]


class PickAtTotal(random.Random):
    """A generator whose ``uniform(a, b)`` returns ``b``: the pick is the total."""

    def uniform(self, a, b):
        return b


def left_to_right_total(values):
    result = 0.0
    for value in values:
        result += value
    return result


def test_the_total_decides_a_pick_at_the_end():
    """The weights' total, not their running sum, bounds the draw.

    Ten weights of 0.1 sum to 0.9999999999999999 left to right but to 1.0
    compensated.  With the pick at the total and a zero-weight listing last,
    the left-to-right total stops on the tenth listing and the compensated
    one runs past the end to the last.  Both must agree with the reference
    loop under the same summation.
    """
    listings = make_listings([f"s{index}" for index in range(11)])
    trust = {
        ("c", listing.supplier_id): 0.1 if index < 10 else 0.0
        for index, listing in enumerate(listings)
    }
    chosen = {}
    for summation in (left_to_right_total, compensated_total):
        assert_same_matching(
            ["c"], listings, trust, lambda: PickAtTotal(0), 0.0, False, summation
        )
        with patched_kernel(summation):
            [(_, listing)] = trust_weighted_matching(
                ["c"],
                listings,
                score_matrix(["c"], listings, trust),
                PickAtTotal(0),
                exploration=0.0,
            )
        chosen[summation] = listing
    assert chosen[left_to_right_total] is listings[9]
    assert chosen[compensated_total] is listings[10]
