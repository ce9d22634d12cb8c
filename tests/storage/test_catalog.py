"""Catalogue tests."""

import pytest

from repro.storage.catalog import Catalog
from repro.storage.table import SchemaError


@pytest.fixture
def catalog():
    cat = Catalog()
    t = cat.create_table("shots", {"shot_id": "int", "category": "str"})
    t.append({"shot_id": 1, "category": "tennis"})
    return cat


class TestTables:
    def test_create_and_lookup(self, catalog):
        assert "shots" in catalog
        assert len(catalog.table("shots")) == 1

    def test_duplicate_rejected(self, catalog):
        with pytest.raises(SchemaError):
            catalog.create_table("shots", {"x": "int"})

    def test_missing_table(self, catalog):
        with pytest.raises(KeyError):
            catalog.table("ghost")

    def test_drop_table(self, catalog):
        catalog.create_hash_index("shots", "category")
        catalog.drop_table("shots")
        assert "shots" not in catalog
        with pytest.raises(KeyError):
            catalog.drop_table("shots")

    def test_table_names_sorted(self, catalog):
        catalog.create_table("a_table", {"x": "int"})
        assert catalog.table_names == ["a_table", "shots"]


class TestIndexes:
    def test_hash_index_cached(self, catalog):
        first = catalog.create_hash_index("shots", "category")
        second = catalog.create_hash_index("shots", "category")
        assert first is second

    def test_hash_index_auto_refresh(self, catalog):
        catalog.create_hash_index("shots", "category")
        catalog.table("shots").append({"shot_id": 2, "category": "tennis"})
        fresh = catalog.hash_index("shots", "category")
        assert list(fresh.lookup("tennis")) == [0, 1]


class TestGenerationStamping:
    def test_starts_at_zero(self):
        assert Catalog().generation == 0

    def test_ddl_bumps(self):
        catalog = Catalog()
        catalog.create_table("shots", {"shot_id": "int"})
        assert catalog.generation == 1
        catalog.create_table("events", {"event_id": "int"})
        assert catalog.generation == 2
        catalog.drop_table("events")
        assert catalog.generation == 3

    def test_explicit_commit_stamp(self):
        catalog = Catalog()
        catalog.create_table("shots", {"shot_id": "int"})
        before = catalog.generation
        assert catalog.bump_generation() == before + 1
        assert catalog.generation == before + 1

    def test_index_building_does_not_bump(self, catalog):
        before = catalog.generation
        catalog.create_hash_index("shots", "category")
        catalog.hash_index("shots", "category")
        assert catalog.generation == before
