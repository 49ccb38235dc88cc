"""Unit tests for the goods and bundle model."""

import math

import pytest

from repro.core.goods import Good, GoodsBundle
from repro.exceptions import InvalidBundleError, InvalidGoodError


class TestGood:
    def test_valid_good(self):
        good = Good(good_id="g1", supplier_cost=3.0, consumer_value=5.0)
        assert good.surplus == pytest.approx(2.0)
        assert good.deficit == pytest.approx(-2.0)
        assert good.is_surplus_item

    def test_deficit_item(self):
        good = Good(good_id="g1", supplier_cost=5.0, consumer_value=3.0)
        assert not good.is_surplus_item
        assert good.deficit == pytest.approx(2.0)

    def test_zero_cost_and_value_allowed(self):
        good = Good(good_id="g1", supplier_cost=0.0, consumer_value=0.0)
        assert good.surplus == 0.0
        assert good.is_surplus_item

    def test_negative_cost_rejected(self):
        with pytest.raises(InvalidGoodError):
            Good(good_id="g1", supplier_cost=-1.0, consumer_value=5.0)

    def test_negative_value_rejected(self):
        with pytest.raises(InvalidGoodError):
            Good(good_id="g1", supplier_cost=1.0, consumer_value=-5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["supplier_cost", "consumer_value"])
    def test_non_finite_values_rejected(self, field, bad):
        values = {"supplier_cost": 1.0, "consumer_value": 5.0, field: bad}
        with pytest.raises(InvalidGoodError, match=f"good 'g1': {field} must be finite"):
            Good(good_id="g1", **values)

    def test_empty_id_rejected(self):
        with pytest.raises(InvalidGoodError):
            Good(good_id="", supplier_cost=1.0, consumer_value=5.0)

    def test_scaled(self):
        good = Good(good_id="g1", supplier_cost=2.0, consumer_value=4.0)
        scaled = good.scaled(cost_factor=2.0, value_factor=0.5)
        assert scaled.supplier_cost == pytest.approx(4.0)
        assert scaled.consumer_value == pytest.approx(2.0)
        assert scaled.good_id == "g1"

    def test_description_not_part_of_equality(self):
        a = Good(good_id="g1", supplier_cost=1.0, consumer_value=2.0, description="x")
        b = Good(good_id="g1", supplier_cost=1.0, consumer_value=2.0, description="y")
        assert a == b


class TestGoodsBundle:
    def make_bundle(self):
        return GoodsBundle(
            [
                Good(good_id="a", supplier_cost=1.0, consumer_value=2.0),
                Good(good_id="b", supplier_cost=3.0, consumer_value=5.0),
                Good(good_id="c", supplier_cost=4.0, consumer_value=3.0),
            ]
        )

    def test_totals(self):
        bundle = self.make_bundle()
        assert bundle.total_supplier_cost == pytest.approx(8.0)
        assert bundle.total_consumer_value == pytest.approx(10.0)
        assert bundle.total_surplus == pytest.approx(2.0)
        assert bundle.is_rational_trade

    def test_len_iter_contains(self):
        bundle = self.make_bundle()
        assert len(bundle) == 3
        ids = [good.good_id for good in bundle]
        assert ids == ["a", "b", "c"]
        assert "a" in bundle
        assert "z" not in bundle
        assert bundle["b"].supplier_cost == pytest.approx(3.0)

    def test_getitem_unknown_raises_keyerror(self):
        bundle = self.make_bundle()
        with pytest.raises(KeyError):
            bundle["nope"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidBundleError):
            GoodsBundle(
                [
                    Good(good_id="a", supplier_cost=1.0, consumer_value=2.0),
                    Good(good_id="a", supplier_cost=3.0, consumer_value=4.0),
                ]
            )

    def test_from_valuations(self):
        bundle = GoodsBundle.from_valuations([1.0, 2.0], [3.0, 4.0])
        assert len(bundle) == 2
        assert bundle.total_supplier_cost == pytest.approx(3.0)
        assert bundle.total_consumer_value == pytest.approx(7.0)

    def test_from_valuations_length_mismatch(self):
        with pytest.raises(InvalidBundleError):
            GoodsBundle.from_valuations([1.0], [3.0, 4.0])

    def test_from_pairs(self):
        bundle = GoodsBundle.from_pairs({"x": (1.0, 2.0), "y": (3.0, 4.0)})
        assert bundle["x"].consumer_value == pytest.approx(2.0)
        assert bundle["y"].supplier_cost == pytest.approx(3.0)

    def test_subset_and_without(self):
        bundle = self.make_bundle()
        subset = bundle.subset(["a", "c"])
        assert set(subset.good_ids) == {"a", "c"}
        rest = bundle.without(["a", "c"])
        assert set(rest.good_ids) == {"b"}

    def test_subset_unknown_id_rejected(self):
        bundle = self.make_bundle()
        with pytest.raises(InvalidBundleError):
            bundle.subset(["a", "zzz"])

    def test_without_unknown_id_rejected(self):
        bundle = self.make_bundle()
        with pytest.raises(InvalidBundleError):
            bundle.without(["zzz"])

    def test_surplus_and_deficit_partition(self):
        bundle = self.make_bundle()
        surplus = bundle.surplus_items()
        deficit = bundle.deficit_items()
        assert set(surplus.good_ids) == {"a", "b"}
        assert set(deficit.good_ids) == {"c"}
        assert len(surplus) + len(deficit) == len(bundle)

    def test_sorted_by(self):
        bundle = self.make_bundle()
        by_cost = bundle.sorted_by("supplier_cost")
        assert list(by_cost.good_ids) == ["a", "b", "c"]
        by_value_desc = bundle.sorted_by("consumer_value", reverse=True)
        assert list(by_value_desc.good_ids) == ["b", "c", "a"]

    def test_sorted_by_invalid_key(self):
        with pytest.raises(InvalidBundleError):
            self.make_bundle().sorted_by("price")

    def test_equality_ignores_order(self):
        a = GoodsBundle.from_pairs({"x": (1.0, 2.0), "y": (3.0, 4.0)})
        b = GoodsBundle.from_pairs({"y": (3.0, 4.0), "x": (1.0, 2.0)})
        assert a == b
        assert hash(a) == hash(b)

    def test_empty_bundle(self):
        bundle = GoodsBundle([])
        assert bundle.is_empty
        assert bundle.total_supplier_cost == 0.0
        assert bundle.total_consumer_value == 0.0

    def test_non_good_item_rejected(self):
        with pytest.raises(InvalidBundleError):
            GoodsBundle(["not a good"])  # type: ignore[list-item]
