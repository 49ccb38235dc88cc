"""Unit tests for interaction records."""

import pytest

from repro.core.exchange import Role
from repro.exceptions import ReputationError
from repro.reputation.records import InteractionRecord


class TestInteractionRecord:
    def test_completed_record(self):
        record = InteractionRecord(
            supplier_id="s", consumer_id="c", completed=True, value=10.0, timestamp=3.0
        )
        assert record.supplier_honest
        assert record.consumer_honest
        assert record.honest(Role.SUPPLIER)
        assert record.participant(Role.CONSUMER) == "c"

    def test_supplier_defection(self):
        record = InteractionRecord(
            supplier_id="s", consumer_id="c", completed=False, defector="supplier"
        )
        assert not record.supplier_honest
        assert record.consumer_honest

    def test_consumer_defection(self):
        record = InteractionRecord(
            supplier_id="s", consumer_id="c", completed=False, defector="consumer"
        )
        assert record.supplier_honest
        assert not record.consumer_honest

    def test_completed_with_defector_rejected(self):
        with pytest.raises(ReputationError):
            InteractionRecord(
                supplier_id="s", consumer_id="c", completed=True, defector="supplier"
            )

    def test_invalid_defector_rejected(self):
        with pytest.raises(ReputationError):
            InteractionRecord(
                supplier_id="s", consumer_id="c", completed=False, defector="martian"
            )

    def test_empty_ids_rejected(self):
        with pytest.raises(ReputationError):
            InteractionRecord(supplier_id="", consumer_id="c", completed=True)

    def test_negative_value_rejected(self):
        with pytest.raises(ReputationError):
            InteractionRecord(
                supplier_id="s", consumer_id="c", completed=True, value=-1.0
            )
