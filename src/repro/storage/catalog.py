"""The table catalogue: named tables + their indexes."""

from __future__ import annotations

from collections.abc import Mapping

from repro.storage.index import HashIndex
from repro.storage.table import SchemaError, Table

__all__ = ["Catalog"]


class Catalog:
    """A registry of tables and their secondary indexes."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._indexes: dict[tuple[str, str], HashIndex] = {}
        self._generation = 0

    # -- generation stamping --------------------------------------------- #

    @property
    def generation(self) -> int:
        """Monotone change counter over the catalogue's contents.

        Every DDL change (table created or dropped) bumps it
        automatically; bulk writers stamp their commits explicitly via
        :meth:`bump_generation`.  Readers that cache derived state (the
        query-serving layer, materialised snapshots) key it on this
        counter so stale reads are structurally impossible.
        """
        return self._generation

    def bump_generation(self) -> int:
        """Stamp a commit: advance and return the generation counter."""
        self._generation += 1
        return self._generation

    # -- tables ---------------------------------------------------------- #

    def create_table(self, name: str, schema: Mapping[str, str]) -> Table:
        """Create and register a table; duplicate names are errors."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, schema)
        self._tables[name] = table
        self.bump_generation()
        return table

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise KeyError(f"no table named {name!r}")
        return self._tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def drop_table(self, name: str) -> None:
        """Remove a table and any indexes built on it."""
        if name not in self._tables:
            raise KeyError(f"no table named {name!r}")
        del self._tables[name]
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]
        self.bump_generation()

    # -- indexes ----------------------------------------------------------#

    def create_hash_index(self, table: str, column: str) -> HashIndex:
        key = (table, column)
        if key not in self._indexes:
            self._indexes[key] = HashIndex(self.table(table), column)
        return self._indexes[key]

    def hash_index(self, table: str, column: str) -> HashIndex:
        """The hash index for (table, column), refreshed if stale."""
        index = self.create_hash_index(table, column)
        if index.stale:
            index.refresh()
        return index
