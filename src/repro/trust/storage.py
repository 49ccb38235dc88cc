"""Evidence-array storage for the trust backends: flat and chunked layouts.

The vectorized backends keep per-subject evidence in dense arrays indexed by
an interned peer table.  Two layouts are supported behind one small helper
vocabulary:

* **flat** — one contiguous ``numpy`` array per column, grown by amortised
  doubling (the original layout).  Every helper degrades to the exact numpy
  operation the backends used before this module existed, so flat-mode
  results are bit-for-bit unchanged.
* **chunked** — a :class:`ChunkedArray`: a list of fixed-size chunks, grown
  by *appending* zeroed chunks.  Growing never copies existing rows, so a
  million-row table expands in O(new chunk) instead of O(table) — and peak
  memory never holds the 2x copy the doubling layout needs mid-growth.
  Backends select it with ``compact=True``, usually together with narrower
  dtypes (float32 evidence, int32 counts).

The helpers (:func:`gather`, :func:`scatter_add`, …) dispatch on the array
type so backend code reads identically for both layouts.  Chunked operations
group indices by chunk with one stable sort and then run the same numpy
kernels per chunk; duplicate-index semantics (``np.add.at`` accumulation,
last-write-wins assignment) are preserved.  Backends keep their columns
in an :class:`EvidenceTable`.
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
    Union,
)

import numpy as np

__all__ = [
    "CHUNK_SIZE",
    "COLUMNS",
    "ChunkedArray",
    "EvidenceArray",
    "EvidenceTable",
    "PeerIndex",
    "make_array",
    "grow",
    "gather",
    "gather_f64",
    "scatter_add",
    "scatter_max",
    "scatter_set",
    "multiply_at",
    "get_item",
    "materialize",
    "prefix_view",
    "prefix_chunks",
]

#: Default chunk length (entries, not bytes).  64Ki rows keeps per-chunk
#: kernels comfortably inside cache while a million-row table needs only
#: ~16 chunk allocations in total.
CHUNK_SIZE = 1 << 16


class ChunkedArray:
    """A 1-D array stored as equally sized chunks; growth appends, never copies.

    Only the operations the trust backends need are implemented; the helper
    functions below present them under the same names used for flat arrays.
    The logical length is the current *capacity* (all allocated entries,
    zero-initialised), mirroring how the flat layout over-allocates — the
    owning backend tracks how many rows are live via its peer index.
    """

    __slots__ = ("_chunks", "_dtype", "_chunk_size", "_shift", "_mask")

    def __init__(self, dtype: np.dtype, chunk_size: int = CHUNK_SIZE):
        if chunk_size < 1 or chunk_size & (chunk_size - 1):
            raise ValueError(f"chunk_size must be a power of two, got {chunk_size}")
        self._chunks: List[np.ndarray] = []
        self._dtype = np.dtype(dtype)
        self._chunk_size = chunk_size
        self._shift = chunk_size.bit_length() - 1
        self._mask = chunk_size - 1

    def __len__(self) -> int:
        return len(self._chunks) * self._chunk_size

    def nbytes(self) -> int:
        return sum(chunk.nbytes for chunk in self._chunks)

    def ensure(self, size: int) -> None:
        """Grow capacity to at least ``size`` by appending zeroed chunks."""
        while len(self._chunks) * self._chunk_size < size:
            self._chunks.append(np.zeros(self._chunk_size, dtype=self._dtype))

    # -- grouped index operations ---------------------------------------
    def _split(self, idx: np.ndarray):
        """Yield ``(chunk, within-chunk positions, selector)`` groups.

        The selector is the boolean mask into ``idx`` for that chunk, so
        callers can align a value array with each group.  Single-chunk
        batches (the common case once a table stops growing) skip the
        grouping entirely.
        """
        chunk_of = idx >> self._shift
        within = idx & self._mask
        first = int(chunk_of[0])
        if int(chunk_of.max()) == first and int(chunk_of.min()) == first:
            yield self._chunks[first], within, slice(None)
            return
        for chunk_index in np.unique(chunk_of):
            mask = chunk_of == chunk_index
            yield self._chunks[chunk_index], within[mask], mask

    def gather(self, idx: np.ndarray) -> np.ndarray:
        out = np.empty(len(idx), dtype=self._dtype)
        if len(idx) == 0:
            return out
        for chunk, within, mask in self._split(idx):
            out[mask] = chunk[within]
        return out

    def _groups(self, idx: np.ndarray, values) -> Iterator:
        """Yield ``(chunk, within-chunk positions, their values)`` groups."""
        if len(idx) == 0:
            return
        scalar = np.ndim(values) == 0
        for chunk, within, mask in self._split(idx):
            yield chunk, within, values if scalar else values[mask]

    def scatter_add(self, idx: np.ndarray, values) -> None:
        for chunk, within, group in self._groups(idx, values):
            np.add.at(chunk, within, group)

    def scatter_max(self, idx: np.ndarray, values) -> None:
        for chunk, within, group in self._groups(idx, values):
            np.maximum.at(chunk, within, group)

    def scatter_set(self, idx: np.ndarray, values) -> None:
        for chunk, within, group in self._groups(idx, values):
            chunk[within] = group

    def multiply_at(self, idx: np.ndarray, factors) -> None:
        """In-place multiply at (unique) indices."""
        for chunk, within, group in self._groups(idx, factors):
            chunk[within] *= group

    # -- whole-array operations ------------------------------------------
    def materialize(self, size: int, dtype: Optional[np.dtype] = None) -> np.ndarray:
        """Contiguous copy of the first ``size`` entries, optionally cast."""
        out = np.empty(size, dtype=self._dtype if dtype is None else dtype)
        for start, chunk in self.iter_prefix(size):
            out[start : start + len(chunk)] = chunk
        return out

    def iter_prefix(self, size: int) -> Iterator:
        """Yield ``(start, chunk-view)`` pairs covering the first ``size`` rows.

        The views are zero-copy; consume them before mutating the array.
        """
        for index, chunk in enumerate(self._chunks):
            start = index * self._chunk_size
            if start >= size:
                return
            yield start, chunk[: min(self._chunk_size, size - start)]

    def assign_prefix(self, values: np.ndarray) -> None:
        """Overwrite the first ``len(values)`` entries (capacity must exist)."""
        for start, chunk in self.iter_prefix(len(values)):
            chunk[:] = values[start : start + len(chunk)]


EvidenceArray = Union[np.ndarray, ChunkedArray]


def make_array(dtype: np.dtype, chunked: bool) -> EvidenceArray:
    """An empty evidence column in the requested layout."""
    if chunked:
        return ChunkedArray(dtype)
    return np.zeros(0, dtype=dtype)


def grow(array: EvidenceArray, size: int) -> EvidenceArray:
    """Capacity of at least ``size``: amortised doubling (flat) or append (chunked)."""
    if isinstance(array, ChunkedArray):
        array.ensure(size)
        return array
    if size <= len(array):
        return array
    capacity = max(8, len(array))
    while capacity < size:
        capacity *= 2
    grown = np.zeros(capacity, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


def gather(array: EvidenceArray, idx: np.ndarray) -> np.ndarray:
    if isinstance(array, ChunkedArray):
        return array.gather(idx)
    return array[idx]


def gather_f64(array: EvidenceArray, idx: np.ndarray) -> np.ndarray:
    """Gather upcast to float64 (no copy when the storage already is)."""
    out = gather(array, idx)
    if out.dtype == np.float64:
        return out
    return out.astype(np.float64)


def scatter_add(array: EvidenceArray, idx: np.ndarray, values) -> None:
    if isinstance(array, ChunkedArray):
        array.scatter_add(idx, values)
    else:
        np.add.at(array, idx, values)


def scatter_max(array: EvidenceArray, idx: np.ndarray, values) -> None:
    if isinstance(array, ChunkedArray):
        array.scatter_max(idx, values)
    else:
        np.maximum.at(array, idx, values)


def scatter_set(array: EvidenceArray, idx: np.ndarray, values) -> None:
    if isinstance(array, ChunkedArray):
        array.scatter_set(idx, values)
    else:
        array[idx] = values


def multiply_at(array: EvidenceArray, idx: np.ndarray, factors) -> None:
    """In-place multiply at indices (callers pass unique indices)."""
    if isinstance(array, ChunkedArray):
        array.multiply_at(idx, factors)
    else:
        array[idx] *= factors


def get_item(array: EvidenceArray, index: int):
    if isinstance(array, ChunkedArray):
        return array.gather(np.array([index], dtype=np.int64))[0]
    return array[index]


def materialize(
    array: EvidenceArray, size: int, dtype: Optional[np.dtype] = None
) -> np.ndarray:
    """Contiguous *copy* of the first ``size`` entries, optionally cast."""
    if isinstance(array, ChunkedArray):
        return array.materialize(size, dtype)
    return np.array(array[:size], dtype=array.dtype if dtype is None else dtype)


def prefix_view(array: EvidenceArray, size: int) -> np.ndarray:
    """The first ``size`` entries — a zero-copy view for flat arrays.

    Chunked arrays have no contiguous view and materialise a copy; prefer
    :func:`gather` over this on hot per-query paths.
    """
    if isinstance(array, ChunkedArray):
        return array.materialize(size)
    return array[:size]


def prefix_chunks(array: EvidenceArray, size: int) -> Iterator:
    """``(start, chunk-view)`` pairs over the first ``size`` entries, zero-copy."""
    if isinstance(array, ChunkedArray):
        yield from array.iter_prefix(size)
    elif size > 0:
        yield 0, array[:size]


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

    def names(self) -> Tuple[str, ...]:
        return tuple(self._names)

    @classmethod
    def from_names(cls, names: Iterable[Any]) -> "PeerIndex":
        """Rebuild an index from a snapshot's name table (order-preserving)."""
        index = cls()
        for name in names:
            index.intern(str(name))
        return index


#: The declared evidence columns: ``(name, canonical dtype, compact dtype)``.
#: Snapshots carry the canonical dtype, so compact and default tables share
#: one format.  Complaint counts are exact in float32 up to 2**24; the decay
#: reference time stays float64 so long runs keep timestamp precision.
COLUMNS: Tuple[Tuple[str, type, type], ...] = (
    ("alpha", np.float64, np.float32),
    ("beta", np.float64, np.float32),
    ("ref", np.float64, np.float64),
    ("count", np.int64, np.int32),
    ("received", np.float64, np.float32),
    ("filed", np.float64, np.float32),
    ("in_store", np.bool_, np.bool_),
)

#: ``name -> (canonical, compact)`` dtypes, indexable by ``compact``.
_DTYPES: Dict[str, Tuple[type, type]] = {
    name: (canonical, compact) for name, canonical, compact in COLUMNS
}

#: Zero-length flat columns, shared by every new flat table (building one
#: table per peer must stay cheap): an empty column holds nothing to write
#: into, and growth replaces it with a fresh array.
_EMPTY_FLAT: Dict[str, np.ndarray] = {
    name: np.zeros(0, dtype=canonical) for name, canonical, _ in COLUMNS
}


class EvidenceTable:
    """Per-subject evidence columns over one interned peer index.

    Holds some of the declared :data:`COLUMNS`, in the owning backend's
    snapshot order, flat or chunked (``compact=True``, compact dtypes).
    Rows are the peer index's dense ids; all columns grow together.

    It also keeps the *dirty-row score cache*, allocated on the first
    :meth:`cached_scores` call: one score and generation per row.
    :meth:`invalidate` marks rows a write touched, and a new ``key`` (the
    query time, for decayed scores) invalidates every row at once.
    """

    def __init__(self, names: Tuple[str, ...], compact: bool = False) -> None:
        self.compact = bool(compact)
        if self.compact:
            self._columns = {name: ChunkedArray(_DTYPES[name][True]) for name in names}
        else:
            self._columns = {name: _EMPTY_FLAT[name] for name in names}
        self._reset(PeerIndex(), 0)

    def _reset(self, index: PeerIndex, capacity: int) -> None:
        self.index = index
        #: Rows every column (and the score cache) can hold.
        self._capacity = capacity
        self._scores: Optional[EvidenceArray] = None
        self._score_generations: Optional[EvidenceArray] = None
        self._generation = 1
        self._score_key: object = None

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, name: str) -> EvidenceArray:
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
            scatter_set(self._score_generations, rows, 0)

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
            self._scores = grow(make_array(np.float64, self.compact), self._capacity)
            self._score_generations = grow(
                make_array(np.int64, self.compact), self._capacity
            )
        known_rows = rows[known]
        stale_mask = gather(self._score_generations, known_rows) != self._generation
        if stale_mask.any():
            stale = np.unique(known_rows[stale_mask])
            scatter_set(self._scores, stale, compute(stale))
            scatter_set(self._score_generations, stale, self._generation)
        out[known] = gather(self._scores, known_rows)
        return out

    # -- snapshots ---------------------------------------------------------
    def peer_ids(self) -> np.ndarray:
        """The interned id table, in row order (the snapshot's ``peer_ids``)."""
        return np.array(self.index.names(), dtype=object)

    def column_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        """``(name, rows)`` per column: fresh canonical-dtype copies, in order."""
        size = len(self.index)
        for name, array in self._columns.items():
            yield name, materialize(array, size, _DTYPES[name][0])

    def restore(self, state: Mapping[str, Any]) -> None:
        """Load ``peer_ids`` and every column from a snapshot; drop the cache."""
        index = PeerIndex.from_names(state["peer_ids"])
        size = len(index)
        for name in self._columns:
            canonical, dtype = _DTYPES[name][0], _DTYPES[name][self.compact]
            values = np.asarray(state[name], dtype=canonical).astype(dtype, copy=False)
            column = grow(make_array(dtype, self.compact), size)
            if isinstance(column, ChunkedArray):
                column.assign_prefix(values)
            else:
                column[:size] = values
            self._columns[name] = column
        self._reset(index, len(column))
