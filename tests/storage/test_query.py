"""Relational helper tests."""

import pytest

from repro.storage.query import group_count
from repro.storage.table import Table


@pytest.fixture
def shots():
    t = Table("shots", {"shot_id": "int", "video_id": "int", "name": "str"})
    t.append({"shot_id": 10, "video_id": 1, "name": "s10"})
    t.append({"shot_id": 11, "video_id": 1, "name": "s11"})
    t.append({"shot_id": 12, "video_id": 2, "name": "s12"})
    return t


class TestGroupCount:
    def test_counts(self, shots):
        assert group_count(shots, "video_id") == {1: 2, 2: 1}
