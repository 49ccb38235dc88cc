"""Listings: goods offered for sale in the community marketplace."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.goods import GoodsBundle
from repro.exceptions import MarketplaceError

__all__ = ["Listing"]


@dataclass(frozen=True)
class Listing:
    """A supplier's offer of a bundle of goods.

    A community round names each listing ``{supplier_id}-r{round}``, so
    same-seed runs repeat their listing ids.
    """

    listing_id: str
    supplier_id: str
    bundle: GoodsBundle
    reserve_price: Optional[float] = None
    created_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.listing_id:
            raise MarketplaceError("listing_id must be non-empty")
        if not self.supplier_id:
            raise MarketplaceError("supplier_id must be non-empty")
        if len(self.bundle) == 0:
            raise MarketplaceError("a listing must offer at least one good")
        if self.reserve_price is not None and self.reserve_price < 0:
            raise MarketplaceError("reserve_price must be >= 0")

    @property
    def minimum_acceptable_price(self) -> float:
        """The supplier's effective floor: reserve price or total cost."""
        if self.reserve_price is not None:
            return self.reserve_price
        return self.bundle.total_supplier_cost
