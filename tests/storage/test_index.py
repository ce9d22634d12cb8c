"""Secondary index tests."""

import pytest

from repro.storage.index import HashIndex
from repro.storage.table import Table


@pytest.fixture
def table():
    t = Table("events", {"event_id": "int", "label": "str", "start": "int"})
    for i, label in enumerate(["rally", "net_play", "rally", "service"]):
        t.append({"event_id": i, "label": label, "start": i * 10})
    return t


class TestHashIndex:
    def test_lookup(self, table):
        index = HashIndex(table, "label")
        assert list(index.lookup("rally")) == [0, 2]
        assert list(index.lookup("net_play")) == [1]

    def test_missing_value(self, table):
        assert len(HashIndex(table, "label").lookup("ace")) == 0

    def test_staleness_and_refresh(self, table):
        index = HashIndex(table, "label")
        table.append({"event_id": 4, "label": "rally", "start": 40})
        assert index.stale
        index.refresh()
        assert not index.stale
        assert list(index.lookup("rally")) == [0, 2, 4]
