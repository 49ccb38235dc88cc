"""Goods and bundles exchanged between a supplier and a consumer.

The paper's exchange model (Section 2) assumes a *set of goods* being sold
for an overall price ``P``.  Each individual good (an "item") carries two
valuations, both known to both partners:

* ``supplier_cost`` — the supplier's cost for generating and delivering the
  item (the paper's ``Vs(x)``), and
* ``consumer_value`` — what the item is worth to the consumer (``Vc(x)``).

Both valuations are additive over sets of goods, which is the assumption the
original safe-exchange analysis (Sandholm 1996) makes and the one this
library implements throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.numeric import EPSILON, total
from repro.exceptions import InvalidBundleError, InvalidGoodError

__all__ = ["Good", "GoodsBundle"]


@dataclass(frozen=True, order=True)
class Good:
    """A single indivisible item of the traded bundle.

    Attributes
    ----------
    good_id:
        Unique identifier of the item inside its bundle.
    supplier_cost:
        The supplier's cost ``Vs(x)`` for producing and delivering the item.
        Must be finite and non-negative.
    consumer_value:
        The consumer's value ``Vc(x)`` for the item.  Must be finite and
        non-negative.
    description:
        Optional free-text description (not used by any algorithm).
    """

    good_id: str
    supplier_cost: float
    consumer_value: float
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.good_id:
            raise InvalidGoodError("good_id must be a non-empty string")
        # ``0 <= x < inf`` is false for NaN, which ``x < 0`` would let pass.
        if not 0.0 <= self.supplier_cost < math.inf:
            raise InvalidGoodError(
                f"good {self.good_id!r}: supplier_cost must be finite and >= 0, "
                f"got {self.supplier_cost}"
            )
        if not 0.0 <= self.consumer_value < math.inf:
            raise InvalidGoodError(
                f"good {self.good_id!r}: consumer_value must be finite and >= 0, "
                f"got {self.consumer_value}"
            )

    @property
    def surplus(self) -> float:
        """Net value created by trading this item (``Vc(x) - Vs(x)``)."""
        return self.consumer_value - self.supplier_cost

    @property
    def deficit(self) -> float:
        """Net value destroyed by trading this item (``Vs(x) - Vc(x)``)."""
        return self.supplier_cost - self.consumer_value

    @property
    def is_surplus_item(self) -> bool:
        """``True`` when the consumer values the item at least at its cost."""
        return self.consumer_value >= self.supplier_cost

    def scaled(self, cost_factor: float = 1.0, value_factor: float = 1.0) -> "Good":
        """Return a copy with both valuations scaled by the given factors."""
        return Good(
            good_id=self.good_id,
            supplier_cost=self.supplier_cost * cost_factor,
            consumer_value=self.consumer_value * value_factor,
            description=self.description,
        )


class GoodsBundle:
    """An immutable collection of :class:`Good` items with unique ids.

    The bundle exposes the aggregate valuations the safety analysis needs:
    total supplier cost, total consumer value and the surplus of the trade.
    Subset views (used to represent the *remaining* goods during an exchange)
    are created with :meth:`subset` and :meth:`without`.  ``valuation_rows``
    is the ``(2, len)`` array of the items' costs and values; a bundle made by
    :meth:`from_valuations` holds it and builds its goods on first read.
    """

    __slots__ = ("_goods", "_by_id", "valuation_rows", "_prefix", "_size",
                 "_total_supplier_cost", "_total_consumer_value")

    def __init__(self, goods: Iterable[Good]):
        goods_list: List[Good] = list(goods)
        by_id: Dict[str, Good] = {}
        for good in goods_list:
            if not isinstance(good, Good):
                raise InvalidBundleError(
                    f"bundle items must be Good instances, got {type(good)!r}"
                )
            if good.good_id in by_id:
                raise InvalidBundleError(
                    f"duplicate good id {good.good_id!r} in bundle"
                )
            by_id[good.good_id] = good
        self._goods: Tuple[Good, ...] = tuple(goods_list)
        self._by_id: Dict[str, Good] = by_id
        self._size = len(goods_list)
        # Immutable, so the two totals are computed once, here.
        self._total_supplier_cost = total(good.supplier_cost for good in goods_list)
        self._total_consumer_value = total(good.consumer_value for good in goods_list)

    def __getattr__(self, name: str) -> object:
        """Build the valuation rows, or a lazy bundle's goods, on first read."""
        if name == "valuation_rows":
            pairs = [(good.supplier_cost, good.consumer_value) for good in self._goods]
            self.valuation_rows = np.array(pairs, np.float64).reshape(-1, 2).T
        elif name in ("_goods", "_by_id"):
            self._goods = tuple(
                Good(f"{self._prefix}-{index}", cost, value)
                for index, (cost, value) in enumerate(self.valuation_rows.T.tolist())
            )
            self._by_id = {good.good_id: good for good in self._goods}
        else:
            raise AttributeError(name)
        return getattr(self, name)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_valuations(
        cls,
        supplier_costs: Sequence[float],
        consumer_values: Sequence[float],
        prefix: str = "good",
        totals: Optional[Sequence[float]] = None,
        checked: bool = False,
    ) -> "GoodsBundle":
        """Build a bundle from two parallel sequences of valuations.

        Ids are generated as ``{prefix}-0``, ``{prefix}-1``, ...; ``totals``
        are the two rows' :func:`total`, when the caller has them already.
        ``checked`` says the caller found every valuation finite and
        non-negative already (a whole block checked at once).
        """
        if len(supplier_costs) != len(consumer_values):
            raise InvalidBundleError(
                "supplier_costs and consumer_values must have the same length"
            )
        bundle = cls.__new__(cls)
        bundle.valuation_rows = rows = np.array(
            [supplier_costs, consumer_values], dtype=np.float64
        )
        bundle._prefix, bundle._size = prefix, len(supplier_costs)
        # Good's own rule; where it fails, the goods are built, and raise, here.
        if not checked and not all(
            0.0 <= value < math.inf for value in rows.ravel().tolist()
        ):
            bundle._goods
        totals = [total(row) for row in rows.tolist()] if totals is None else totals
        bundle._total_supplier_cost, bundle._total_consumer_value = totals
        return bundle

    @classmethod
    def from_pairs(
        cls, pairs: Mapping[str, Tuple[float, float]]
    ) -> "GoodsBundle":
        """Build a bundle from a mapping ``good_id -> (cost, value)``."""
        goods = [
            Good(good_id=good_id, supplier_cost=float(cost), consumer_value=float(value))
            for good_id, (cost, value) in pairs.items()
        ]
        return cls(goods)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Good]:
        return iter(self._goods)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Good):
            return item.good_id in self._by_id and self._by_id[item.good_id] == item
        if isinstance(item, str):
            return item in self._by_id
        return False

    def __getitem__(self, good_id: str) -> Good:
        try:
            return self._by_id[good_id]
        except KeyError:
            raise KeyError(f"no good with id {good_id!r} in bundle") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GoodsBundle):
            return NotImplemented
        return set(self._goods) == set(other._goods)

    def __hash__(self) -> int:
        return hash(frozenset(self._goods))

    def __repr__(self) -> str:
        return (
            f"GoodsBundle(n={len(self)}, Vs={self.total_supplier_cost:.3f}, "
            f"Vc={self.total_consumer_value:.3f})"
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def goods(self) -> Tuple[Good, ...]:
        """The goods of the bundle, in insertion order."""
        return self._goods

    @property
    def good_ids(self) -> Tuple[str, ...]:
        """Ids of the goods, in insertion order."""
        return tuple(good.good_id for good in self._goods)

    def get(self, good_id: str) -> Optional[Good]:
        """Return the good with the given id, or ``None`` if absent."""
        return self._by_id.get(good_id)

    @property
    def is_empty(self) -> bool:
        return not self._size

    # ------------------------------------------------------------------
    # Aggregate valuations
    # ------------------------------------------------------------------
    @property
    def total_supplier_cost(self) -> float:
        """``Vs`` of the whole bundle: sum of the items' supplier costs."""
        return self._total_supplier_cost

    @property
    def total_consumer_value(self) -> float:
        """``Vc`` of the whole bundle: sum of the items' consumer values."""
        return self._total_consumer_value

    @property
    def total_surplus(self) -> float:
        """Net value created when the whole bundle is traded."""
        return self.total_consumer_value - self.total_supplier_cost

    @property
    def is_rational_trade(self) -> bool:
        """``True`` when trading the whole bundle creates non-negative surplus."""
        return self.total_surplus >= -EPSILON

    # ------------------------------------------------------------------
    # Subsets
    # ------------------------------------------------------------------
    def subset(self, good_ids: Iterable[str]) -> "GoodsBundle":
        """Return a new bundle containing only the goods with the given ids."""
        ids = list(good_ids)
        missing = [good_id for good_id in ids if good_id not in self._by_id]
        if missing:
            raise InvalidBundleError(f"unknown good ids: {missing}")
        selected = set(ids)
        return GoodsBundle(good for good in self._goods if good.good_id in selected)

    def without(self, good_ids: Iterable[str]) -> "GoodsBundle":
        """Return a new bundle with the goods with the given ids removed."""
        removed = set(good_ids)
        missing = [good_id for good_id in removed if good_id not in self._by_id]
        if missing:
            raise InvalidBundleError(f"unknown good ids: {missing}")
        return GoodsBundle(
            good for good in self._goods if good.good_id not in removed
        )

    def surplus_items(self) -> "GoodsBundle":
        """Goods whose consumer value covers their supplier cost."""
        return GoodsBundle(good for good in self._goods if good.is_surplus_item)

    def deficit_items(self) -> "GoodsBundle":
        """Goods whose supplier cost exceeds their consumer value."""
        return GoodsBundle(good for good in self._goods if not good.is_surplus_item)

    def sorted_by(self, key: str, reverse: bool = False) -> "GoodsBundle":
        """Return a bundle sorted by ``supplier_cost``/``consumer_value``/``surplus``."""
        if key not in {"supplier_cost", "consumer_value", "surplus", "good_id"}:
            raise InvalidBundleError(f"cannot sort goods by {key!r}")
        return GoodsBundle(
            sorted(self._goods, key=lambda good: getattr(good, key), reverse=reverse)
        )
