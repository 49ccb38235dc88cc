"""Oracle test of the round-level trust read ``trust_rows``.

The reference is independent of the round read: for each observer on its
own, ``backend_for(read).scores_for(names, now)`` of every read its trust
method names (:meth:`TrustMethod.reads_of`), and their minimum for
COMBINED.  ``backend_for("beta")`` copies the observer's cells into a plain
beta backend, so the reference never reads the community table's rows.

Observers use all four methods, most keep their evidence in one shared
table and complaint store, and two are kept elsewhere: one in a private
table and one with a private complaint store.  Random outcome batches and
false complaints are written between reads; names repeat (the gathered
columns), include subjects nobody knows, and are passed both as plain names
and as columns resolved in the shared table; a long observer list spans
several of the table's gather blocks.  Every row must equal its reference
bit for bit.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reputation.records import InteractionRecord
from repro.simulation.peer import CommunityPeer, TrustMethod, trust_rows
from repro.trust import CommunityBetaTable, create_backend

#: Observer name -> trust method; ``alone`` keeps a private beta table and
#: ``apart`` a private complaint store.
PEERS = {
    "beta": TrustMethod.BETA,
    "complaint": TrustMethod.COMPLAINT,
    "combined": TrustMethod.COMBINED,
    "decay": TrustMethod.DECAY,
    "beta-2": TrustMethod.BETA,
    "combined-2": TrustMethod.COMBINED,
    "alone": TrustMethod.COMBINED,
    "apart": TrustMethod.COMBINED,
}
OBSERVERS = list(PEERS)
#: Partners: every peer plus outsiders that are no peer.
PARTNERS = OBSERVERS + [f"s{index}" for index in range(5)]
NAMES = PARTNERS + ["stranger", "nobody"]

outcomes = st.tuples(
    st.sampled_from(OBSERVERS),
    st.sampled_from(PARTNERS),
    st.booleans(),  # the observer supplies (else it consumes)
    st.sampled_from([None, "supplier", "consumer"]),
    st.sampled_from([0.0, 0.5, 3.0, 12.5]),
)
steps = st.lists(
    st.tuples(
        st.lists(outcomes, max_size=10),
        st.lists(st.tuples(st.sampled_from(OBSERVERS), st.sampled_from(PARTNERS)), max_size=2),
        st.lists(st.sampled_from(OBSERVERS), min_size=1, max_size=10),
        st.lists(st.sampled_from(NAMES), max_size=12),
        st.booleans(),  # names as columns resolved in the shared table
    ),
    min_size=1,
    max_size=6,
)


def _community():
    table = CommunityBetaTable()
    store = create_backend("complaint", metric_mode="balanced")
    peers = {}
    for name, method in PEERS.items():
        peer = CommunityPeer(
            name,
            complaint_store=None if name == "apart" else store,
            trust_method=method,
        )
        if name != "alone":
            peer.join_table(table)
        peers[name] = peer
    return table, peers


def _record(observer, partner, supplies, defector, value, timestamp):
    supplier, consumer = (observer, partner) if supplies else (partner, observer)
    return InteractionRecord(
        supplier_id=supplier,
        consumer_id=consumer,
        completed=defector is None,
        defector=defector,
        value=value,
        timestamp=timestamp,
    )


def _reference(observer, names, now):
    reads = [
        observer.backend_for(read).scores_for(names, now=now)
        for read in TrustMethod.reads_of(observer.trust_method)
    ]
    return functools.reduce(np.minimum, reads)


@settings(max_examples=60, deadline=None)
@given(steps=steps)
def test_trust_rows_equal_each_observers_own_reads(steps):
    table, peers = _community()
    for time, (batch, filings, observers, names, resolved) in enumerate(steps):
        for observer, partner, supplies, defector, value in batch:
            if partner != observer:
                peers[observer].observe_outcome(
                    _record(observer, partner, supplies, defector, value, float(time))
                )
        for filer, accused in filings:
            peers[filer].file_complaint(accused, timestamp=float(time))
        now = time + 0.5
        readers = [peers[name] for name in observers]
        asked = table.columns(names) if resolved else names
        scores = trust_rows(readers, asked, now)
        assert scores.shape == (len(readers), len(names))
        for row, reader in zip(scores, readers):
            assert row.tobytes() == _reference(reader, names, now).tobytes()
            single = reader.trust_in_many(asked, now=now)
            assert single.tobytes() == row.tobytes()


def test_repeated_and_unknown_names_read_like_plain_names():
    table, peers = _community()
    peers["beta"].observe_outcomes(
        [
            _record("beta", "s0", False, None, 1.0, 0.0),
            _record("beta", "s1", False, "supplier", 1.0, 0.0),
        ]
    )
    peers["alone"].observe_outcome(_record("alone", "s0", False, "supplier", 1.0, 0.0))
    names = ["s0", "stranger", "s1", "s0", "s1"]
    columns = table.columns(names)
    assert columns.gather is not None
    readers = [peers["beta"], peers["alone"], peers["beta-2"]]
    scores = trust_rows(readers, columns, 1.0)
    prior = 0.5
    assert scores[0].tolist() == [2 / 3, prior, 1 / 3, 2 / 3, 1 / 3]
    assert scores[2].tolist() == [prior] * 5
    for row, reader in zip(scores, readers):
        assert row.tobytes() == _reference(reader, names, 1.0).tobytes()


def test_many_observers_read_in_blocks_like_each_alone():
    table, peers = _community()
    defectors = [None, "supplier", "consumer"]
    for time, observer in enumerate(OBSERVERS):
        for index, partner in enumerate(PARTNERS):
            if partner != observer and (time + index) % 3:
                supplies, defector = index % 2 == 0, defectors[index % 3]
                peers[observer].observe_outcome(
                    _record(observer, partner, supplies, defector, 3.0, float(time))
                )
    readers = [peers[name] for name in OBSERVERS] * 25  # past several blocks
    scores = trust_rows(readers, table.columns(NAMES), 9.0)
    for row, reader in zip(scores, readers):
        assert row.tobytes() == _reference(reader, NAMES, 9.0).tobytes()
