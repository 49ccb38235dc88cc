"""One community-wide beta evidence table over dense integer peer ids.

Every peer of a simulated community keeps first-hand beta evidence
(Jøsang & Ismail's *Beta Reputation System*): one ``(alpha, beta)``
posterior per ``(observer, subject)`` pair.  :class:`CommunityBetaTable`
holds all of those cells in one :class:`~repro.trust.backend.
BetaTrustBackend` kernel whose keys are *pair keys*
``observer_gid << 32 | subject_gid``, where a gid is a peer name interned
once in the table's :attr:`~CommunityBetaTable.ids`.  The kernel's columns,
growth and score formula are the per-peer backend's, so every read is
bit-identical to what a private ``create_backend("beta")`` per observer
answers.

Writes are queued and applied as one kernel batch before the next read.
A write is columns (:meth:`CommunityBetaTable.observe_columns`: observer
and subject gids, honest, weight), queued as lists and converted to
arrays once, when the queue is applied; a simulated round writes all its
observations at once, in per-peer batch order, so no
:class:`~repro.trust.backend.TrustObservation` is built.  Each pair row
receives its observations in the order they were written, and new pair
rows are interned in that order, so the sums and the row order are the
ones per-batch writes produce.

A round's pair reads by gid are one gather: :meth:`CommunityBetaTable.
pair_beliefs` answers many ``(observer, subject)`` gid pairs at once, which
is how a round answers its witness requests and reads its match trusts.

The table also remembers, per observer, the subjects it has evidence about
in first-observation order.  Trust rows over many names are then filled
from those subjects alone: the names are resolved once into
:class:`SubjectColumns`, and :meth:`CommunityBetaTable.rows` fills many
observers' rows at once (a round reads its consumers' trust in its listed
suppliers as one matrix) with one fill of the prior and one gather over
each block of observers' known subjects, so the read costs O(the cells
plus the subjects they know).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TrustModelError
from repro.trust.backend import BetaTrustBackend, TrustObservation
from repro.trust.storage import PeerIndex

__all__ = ["CommunityBetaTable", "SubjectColumns"]

#: Bits of a pair key that hold the subject gid.
_SUBJECT_BITS = 32
#: Observers :meth:`CommunityBetaTable.rows` gathers at once.  A gather's
#: temporaries are a few arrays the size of its known cells; blocks keep
#: them small beside the score matrix (one gather over a 300-peer
#: community's 7.9k known cells raised peak RSS by 0.4 MB) at a cost of
#: one pass per block.
_ROWS_BLOCK = 64

class SubjectColumns(tuple):
    """Subject names whose columns are resolved in one table.

    Iterates, indexes and measures like the tuple of names, so a backend
    that reads names reads it unchanged.  ``table`` is the resolving table,
    ``column_of`` maps a subject gid to one column of that subject, and
    ``gather`` maps every column to its subject's ``column_of`` column, or
    is ``None`` when no name repeats.  A name the table had not interned
    when it resolved them has no column and reads the prior.
    """

    table: "CommunityBetaTable"
    column_of: Dict[int, int]
    gather: Optional[np.ndarray]


class CommunityBetaTable(BetaTrustBackend):
    """Beta evidence of every observer about every subject, one row per pair.

    As a :class:`~repro.trust.backend.BetaTrustBackend` its subject ids are
    pair keys (:meth:`pair_keys`, which applies queued writes first), so
    ``belief``, ``observation_count``, ``scores_for`` and
    ``aggregate_witness_reports`` take pair keys; :meth:`pair_beliefs`
    reads many pairs by their gids.  :meth:`update_many` takes
    observations from any number of observers; :meth:`observe_columns` is
    the same write as columns of gids.  The whole table has no
    snapshot: :meth:`backend_for` copies one observer's cells into a plain
    beta backend.
    """

    def __init__(self, prior_alpha: float = 1.0, prior_beta: float = 1.0) -> None:
        super().__init__(prior_alpha, prior_beta)
        self._ids = PeerIndex()
        #: observer gid -> (subject gids, pair rows), in first-observation
        #: order.
        self._known: Dict[int, Tuple[List[int], List[int]]] = {}
        #: Observation columns written since the last read (observer and
        #: subject gids, honest, weights), in write order; ``_settle``
        #: applies them.
        self._queued: Tuple[List[int], List[int], List[bool], List[float]] = (
            [],
            [],
            [],
            [],
        )

    @property
    def ids(self) -> PeerIndex:
        """The peer-name -> gid index (observers and subjects alike)."""
        return self._ids

    # -- writes ----------------------------------------------------------
    def update_many(self, observations: Sequence[TrustObservation]) -> None:
        """Queue a batch of observations by any observers."""
        ids = self._ids
        self.observe_columns(
            ids.intern_many([o.observer_id for o in observations]).tolist(),
            ids.intern_many([o.subject_id for o in observations]).tolist(),
            [o.honest for o in observations],
            [o.weight for o in observations],
        )

    def observe_columns(
        self,
        observers: Sequence[int],
        subjects: Sequence[int],
        honest: Sequence[bool],
        weights: Sequence[float],
    ) -> None:
        """Queue observations given as columns, one row each: observer and
        subject gids, whether the subject was honest, and the observation's
        (positive) weight.  The columns join the queue as lists and become
        arrays once, when the queue is applied."""
        queued_observers, queued_subjects, queued_honest, queued_weights = (
            self._queued
        )
        queued_observers.extend(observers)
        queued_subjects.extend(subjects)
        queued_honest.extend(honest)
        queued_weights.extend(weights)

    def _settle(self) -> None:
        """Apply every queued observation in one kernel batch."""
        queued_observers, queued_subjects, queued_honest, queued_weights = (
            self._queued
        )
        if not queued_observers:
            return
        self._queued = ([], [], [], [])
        observers = np.array(queued_observers, dtype=np.int64)
        subjects = np.array(queued_subjects, dtype=np.int64)
        size = len(self._table)
        keys = (observers << _SUBJECT_BITS) | subjects
        rows = self._add_evidence(
            keys.tolist(),
            np.array(queued_honest, dtype=bool),
            np.array(queued_weights, dtype=np.float64),
            None,
        )
        self._remember(observers, subjects, rows, size)

    def adopt(self, observer: int, cells: BetaTrustBackend) -> None:
        """Add the evidence held in ``cells`` as the observer's own.

        ``cells`` is a plain beta backend about one observer's subjects, as
        :meth:`backend_for` returns it; its subjects keep their order.
        """
        self._settle()
        state = cells.snapshot()
        subjects = self._ids.intern_many(state["peer_ids"].tolist())
        observers = np.full(len(subjects), observer, dtype=np.int64)
        table = self._table
        size = len(table)
        rows = table.intern_many(((observers << _SUBJECT_BITS) | subjects).tolist())
        for name in self.COLUMNS:
            table[name][rows] += state[name]
        table.invalidate(rows)
        self._remember(observers, subjects, rows, size)

    def _remember(
        self,
        observers: np.ndarray,
        subjects: np.ndarray,
        rows: np.ndarray,
        size: int,
    ) -> None:
        """Append every pair row at or past ``size`` to its observer's list.

        New rows are interned in first-occurrence order, so sorting them
        keeps each observer's subjects in first-observation order.
        """
        if len(self._table) == size:
            return
        new = np.flatnonzero(rows >= size)
        fresh, first = np.unique(rows[new], return_index=True)
        at = new[first]
        for observer, subject, row in zip(
            observers[at].tolist(), subjects[at].tolist(), fresh.tolist()
        ):
            known_subjects, known_rows = self._known.setdefault(observer, ([], []))
            known_subjects.append(subject)
            known_rows.append(row)

    # -- reads -----------------------------------------------------------
    def columns(self, names: Sequence[str]) -> SubjectColumns:
        """``names`` with their columns resolved in this table.

        Names this table resolved already pass through unchanged, so a
        caller may resolve once and read many rows.
        """
        if isinstance(names, SubjectColumns) and names.table is self:
            return names
        self._settle()
        columns = SubjectColumns(names)
        gids = self._ids.lookup_many(columns)
        listed = np.flatnonzero(gids >= 0)
        listed_gids = gids[listed].tolist()
        column_of = dict(zip(listed_gids, listed.tolist()))
        gather = None
        if len(column_of) < len(listed_gids):
            gather = np.arange(len(columns))
            gather[listed] = [column_of[gid] for gid in listed_gids]
        columns.table, columns.column_of, columns.gather = self, column_of, gather
        return columns

    def rows(
        self, observers: Sequence[int], columns: SubjectColumns
    ) -> Tuple[np.ndarray, int]:
        """Each observer's trust in each subject of ``columns``, a row per
        observer gid, and how many cells were read from evidence.

        Each block of observers' known subjects is mapped to columns in one
        pass and their cells scored in one gather; every other cell holds
        the prior score.
        """
        self._settle()
        out = np.full(
            (len(observers), len(columns)),
            self._prior_alpha / (self._prior_alpha + self._prior_beta),
        )
        observers = np.asarray(observers, dtype=np.int64).tolist()
        filled = 0
        for start in range(0, len(observers), _ROWS_BLOCK):
            known = [
                self._known.get(observer, ((), ()))
                for observer in observers[start : start + _ROWS_BLOCK]
            ]
            subjects = [subject for observed, _ in known for subject in observed]
            cols = np.fromiter(
                map(columns.column_of.get, subjects, itertools.repeat(-1)),
                dtype=np.int64,
                count=len(subjects),
            )
            listed = np.flatnonzero(cols >= 0)
            if len(listed):
                owners = np.repeat(
                    np.arange(start, start + len(known)),
                    [len(observed) for observed, _ in known],
                )
                rows = np.fromiter(
                    itertools.chain.from_iterable(pair_rows for _, pair_rows in known),
                    dtype=np.int64,
                    count=len(subjects),
                )
                out[owners[listed], cols[listed]] = self._row_scores(rows[listed], None)
                filled += len(listed)
        if columns.gather is not None:
            out = out[:, columns.gather]
        return out, filled

    def gid(self, name: str) -> int:
        """The gid of ``name`` (-1 if the table has none), after queued writes."""
        self._settle()
        gid = self._ids.get(name)
        return -1 if gid is None else gid

    def pair_beliefs(
        self, observers: Sequence[int], subjects: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Posterior ``alpha``, ``beta`` and ``count`` of each pair, by gids.

        Row ``i`` is the pair ``(observers[i], subjects[i])``; a pair
        without a row, or a subject gid of -1, reads the prior and a count
        of 0.  One gather, bit-identical to :meth:`belief` and
        :meth:`observation_count` of each pair's key.
        """
        self._settle()
        observers = np.asarray(observers, dtype=np.int64)
        subjects = np.asarray(subjects, dtype=np.int64)
        keys = np.where(subjects >= 0, (observers << _SUBJECT_BITS) | subjects, -1)
        rows = self._table.index.lookup_many(keys.tolist())
        alpha = np.full(len(rows), self._prior_alpha)
        beta = np.full(len(rows), self._prior_beta)
        count = np.zeros(len(rows), dtype=np.int64)
        known = rows >= 0
        if known.any():
            rows = rows[known]
            alpha[known], beta[known] = self._posterior(rows, None)
            count[known] = self._table["count"][rows]
        return alpha, beta, count

    def pair_keys(self, observer: int, names: Sequence[str]) -> List[int]:
        """Pair keys of the observer with each name (-1 for unknown names).

        Applies queued writes first, so kernel reads by these keys see
        them.
        """
        self._settle()
        base = observer << _SUBJECT_BITS
        gid_of = self._ids.get
        keys = []
        for name in names:
            gid = gid_of(name)
            keys.append(-1 if gid is None else base | gid)
        return keys

    def backend_for(self, observer: int) -> BetaTrustBackend:
        """A copy of the observer's cells as a plain beta backend.

        Subjects come in first-observation order, so the copy's snapshot is
        the one a private backend fed the same observations would take.  It
        is a snapshot: writing to it does not reach the table.
        """
        self._settle()
        subjects, rows = self._known.get(observer, ([], []))
        row_index = np.asarray(rows, dtype=np.int64)
        backend = BetaTrustBackend(self._prior_alpha, self._prior_beta)
        state = dict(self._config_items())
        state["backend"] = np.array(backend.name)
        state["peer_ids"] = np.array(
            [self._ids.name_of(subject) for subject in subjects], dtype=object
        )
        for name in self.COLUMNS:
            state[name] = self._table[name][row_index]
        backend.restore(state)
        return backend

    # -- no whole-table snapshot ----------------------------------------
    def snapshot_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        raise TrustModelError(
            "the community table has no snapshot; copy one observer's cells "
            "with backend_for(observer)"
        )

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        raise TrustModelError(
            "the community table cannot be restored; restore a per-observer "
            "backend instead"
        )
