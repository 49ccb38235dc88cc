"""Evidence-array storage for the trust backends.

The vectorized backends keep per-subject evidence in dense ``numpy``
columns indexed by an interned peer table (:class:`PeerIndex`).  An
:class:`EvidenceTable` holds one contiguous array per declared column, in
its canonical dtype (float64 evidence, int64 counts, bool flags), grown by
amortised doubling (:func:`grow`) as new subjects are interned.  The
backends index the columns with plain numpy operations, and snapshots
carry the same dtypes, so a restored table is bit-identical to the one
that was saved.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import TrustModelError

__all__ = [
    "COLUMNS",
    "EvidenceTable",
    "PeerIndex",
    "grow",
]


def grow(array: np.ndarray, size: int) -> np.ndarray:
    """Capacity of at least ``size`` by amortised doubling (zero-filled)."""
    if size <= len(array):
        return array
    capacity = max(8, len(array))
    while capacity < size:
        capacity *= 2
    grown = np.zeros(capacity, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class PeerIndex:
    """Interns peer-id strings to dense integer indices."""

    __slots__ = ("_ids", "_names")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []

    def __len__(self) -> int:
        return len(self._names)

    def intern(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = len(self._names)
            self._ids[name] = index
            self._names.append(name)
        return index

    def intern_many(self, names: Sequence[str]) -> np.ndarray:
        """Row indices for ``names``, interning unseen ids (batch fast path).

        The common steady-state batch repeats already-known subjects, so the
        lookup is one C-level ``map`` over the id dict; only when that trips
        over an unseen id are the *unique* new names interned (one dict
        insert per distinct id, not per occurrence) before the single-pass
        lookup is retried.  First-occurrence order is preserved, so the
        index assignment is identical to interning one observation at a
        time.
        """
        getitem = self._ids.__getitem__
        count = len(names)
        try:
            return np.fromiter(map(getitem, names), dtype=np.int64, count=count)
        except KeyError:
            intern = self.intern
            for name in dict.fromkeys(names):
                intern(name)
            return np.fromiter(map(getitem, names), dtype=np.int64, count=count)

    def lookup_many(self, names: Sequence[str]) -> np.ndarray:
        """Row indices for ``names`` with ``-1`` marking unknown ids.

        One C-level ``map`` of ``dict.get`` with a ``-1`` default, known and
        unknown ids alike.
        """
        return np.fromiter(
            map(self._ids.get, names, itertools.repeat(-1)),
            dtype=np.int64,
            count=len(names),
        )

    def get(self, name: str) -> Optional[int]:
        return self._ids.get(name)

    def name_of(self, index: int) -> str:
        return self._names[index]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._names)

    @classmethod
    def from_names(cls, names: Iterable[Any]) -> "PeerIndex":
        """Rebuild an index from a snapshot's name table (order-preserving)."""
        index = cls()
        for name in names:
            index.intern(str(name))
        return index


#: The declared evidence columns and their dtypes; snapshots carry the same
#: dtypes.
COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("alpha", np.float64),
    ("beta", np.float64),
    ("ref", np.float64),
    ("count", np.int64),
    ("received", np.float64),
    ("filed", np.float64),
    ("in_store", np.bool_),
)

#: Zero-length columns, shared by every new table (building one table per
#: peer must stay cheap): an empty column holds nothing to write into, and
#: growth replaces it with a fresh array.
_EMPTY: Dict[str, np.ndarray] = {
    name: np.zeros(0, dtype=dtype) for name, dtype in COLUMNS
}


class EvidenceTable:
    """Per-subject evidence columns over one interned peer index.

    Holds some of the declared :data:`COLUMNS`, in the owning backend's
    snapshot order.  Rows are the peer index's dense ids; all columns grow
    together.

    It also keeps the *dirty-row score cache*, allocated on the first
    :meth:`cached_scores` call: one score and generation per row.
    :meth:`invalidate` marks rows a write touched, and a new ``key`` (the
    query time, for decayed scores) invalidates every row at once.
    """

    def __init__(self, names: Tuple[str, ...]) -> None:
        self._columns = {name: _EMPTY[name] for name in names}
        self._reset(PeerIndex(), 0)

    def _reset(self, index: PeerIndex, capacity: int) -> None:
        self.index = index
        #: Rows every column (and the score cache) can hold.
        self._capacity = capacity
        self._scores: Optional[np.ndarray] = None
        self._score_generations: Optional[np.ndarray] = None
        self._generation = 1
        self._score_key: object = None

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    def ensure_capacity(self) -> None:
        """Grow every column (and the score cache) to cover every row."""
        size = len(self.index)
        if size <= self._capacity:
            return
        columns = self._columns
        for name, array in columns.items():
            columns[name] = grow(array, size)
        if self._scores is not None and self._score_generations is not None:
            self._scores = grow(self._scores, size)
            self._score_generations = grow(self._score_generations, size)
        # Columns grow in lockstep, so they share one capacity.
        self._capacity = len(next(iter(columns.values())))

    def intern_many(self, names: Sequence[str]) -> np.ndarray:
        """Rows for ``names``, interning unseen ids and growing the columns."""
        rows = self.index.intern_many(names)
        self.ensure_capacity()
        return rows

    # -- dirty-row score cache -------------------------------------------
    def invalidate(self, rows: np.ndarray) -> None:
        """Mark ``rows`` dirty: their next :meth:`cached_scores` recomputes."""
        if self._score_generations is not None:
            self._score_generations[rows] = 0

    def cached_scores(
        self,
        rows: np.ndarray,
        prior_score: float,
        compute: Callable[[np.ndarray], np.ndarray],
        key: object = None,
    ) -> np.ndarray:
        """Scores for ``rows`` (-1 = unknown), recomputing only stale rows.

        A row is stale unless its generation equals the table's; stale rows
        go through ``compute``, the backend's per-row formula, so a cached
        score is bit-identical to a recomputed one.  Unknown subjects score
        ``prior_score`` without touching the cache.
        """
        if key != self._score_key:
            self._score_key = key
            self._generation += 1
        out = np.full(len(rows), prior_score)
        known = rows >= 0
        if not known.any():
            return out
        if self._scores is None or self._score_generations is None:
            self._scores = np.zeros(self._capacity)
            self._score_generations = np.zeros(self._capacity, dtype=np.int64)
        known_rows = rows[known]
        stale_mask = self._score_generations[known_rows] != self._generation
        if stale_mask.any():
            stale = np.unique(known_rows[stale_mask])
            self._scores[stale] = compute(stale)
            self._score_generations[stale] = self._generation
        out[known] = self._scores[known_rows]
        return out

    # -- snapshots ---------------------------------------------------------
    def peer_ids(self) -> np.ndarray:
        """The interned id table, in row order (the snapshot's ``peer_ids``)."""
        return np.array(self.index.names(), dtype=object)

    def column_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        """``(name, rows)`` per column: fresh copies, in order."""
        size = len(self.index)
        for name, array in self._columns.items():
            yield name, array[:size].copy()

    def restore(self, state: Mapping[str, Any]) -> None:
        """Load ``peer_ids`` and every column from a snapshot; drop the cache.

        Every column must hold exactly one row per distinct peer id;
        anything else (a short, long or scalar column, or a repeated name in
        ``peer_ids``) raises :class:`~repro.exceptions.TrustModelError`
        before the table changes.
        """
        index = PeerIndex.from_names(state["peer_ids"])
        size = len(index)
        columns: Dict[str, np.ndarray] = {}
        for name, array in self._columns.items():
            values = np.asarray(state[name], dtype=array.dtype)
            if values.shape != (size,):
                raise TrustModelError(
                    f"snapshot column {name!r} has shape {values.shape}, "
                    f"expected ({size},): one row per distinct peer id"
                )
            column = grow(_EMPTY[name], size)
            column[:size] = values
            columns[name] = column
        self._columns = columns
        self._reset(index, len(column))
