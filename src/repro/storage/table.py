"""Tables: an ordered set of named, equal-length columns.

A table's schema maps column names to type tags.  Rows are appended as
dicts; scans produce either row dicts (convenient) or raw column arrays
(fast path for the IR engine).  Selection composes vectorised masks.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.storage.columns import Column, column_for

__all__ = ["Schema", "SchemaError", "Table"]

Schema = dict[str, str]


class SchemaError(ValueError):
    """Raised for schema violations (unknown columns, bad types...)."""


class Table:
    """A named table with typed columns.

    Args:
        name: table name (catalogue key).
        schema: ordered mapping of column name -> type tag
            (``int`` / ``float`` / ``str`` / ``bool``).
    """

    def __init__(self, name: str, schema: Mapping[str, str]):
        if not schema:
            raise SchemaError("a table needs at least one column")
        self.name = name
        self.schema: Schema = dict(schema)
        self._columns: dict[str, Column] = {
            col: column_for(type_name) for col, type_name in self.schema.items()
        }

    def __len__(self) -> int:
        first = next(iter(self._columns.values()))
        return len(first)

    @property
    def column_names(self) -> list[str]:
        return list(self.schema)

    def column(self, name: str) -> Column:
        """Direct access to a column (the fast path)."""
        if name not in self._columns:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return self._columns[name]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def append(self, row: Mapping[str, object]) -> int:
        """Append one row; returns its row id.

        Every schema column must be present; extra keys are rejected so
        typos fail loudly.
        """
        extra = set(row) - set(self.schema)
        if extra:
            raise SchemaError(f"unknown columns {sorted(extra)} for table {self.name!r}")
        missing = set(self.schema) - set(row)
        if missing:
            raise SchemaError(f"missing columns {sorted(missing)} for table {self.name!r}")
        row_id = len(self)
        appended: list[str] = []
        try:
            for name, column in self._columns.items():
                column.append(row[name])
                appended.append(name)
        except Exception:
            # Keep columns equal length: a partial append would corrupt
            # the table, and columns are append-only, so rebuild them.
            for name in appended:
                column = self._columns[name]
                rebuilt = column_for(self.schema[name])
                keep = len(column) - 1
                for i in range(keep):
                    rebuilt.append(column.get(i))
                self._columns[name] = rebuilt
            raise
        return row_id

    def load_columns(self, columns: Mapping[str, list]) -> None:
        """Bulk-load whole column value lists into an empty table.

        The snapshot-restore fast path: one vectorised buffer write per
        column instead of one :meth:`append` per row.  Every schema
        column must be present, all lists equal length, and the table
        empty (bulk loads are whole-table restores, not increments) —
        violations raise :class:`SchemaError` before anything mutates.
        """
        if len(self) != 0:
            raise SchemaError(f"table {self.name!r} is not empty; load_columns is a restore")
        extra = set(columns) - set(self.schema)
        if extra:
            raise SchemaError(f"unknown columns {sorted(extra)} for table {self.name!r}")
        missing = set(self.schema) - set(columns)
        if missing:
            raise SchemaError(f"missing columns {sorted(missing)} for table {self.name!r}")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"table {self.name!r} has ragged columns: {sorted(lengths)}")
        # Stage into fresh columns so a bad value leaves the table empty.
        staged = {name: column_for(self.schema[name]) for name in self.schema}
        for name, column in staged.items():
            column.extend(columns[name])
        self._columns = staged

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def row(self, row_id: int) -> dict[str, object]:
        if not 0 <= row_id < len(self):
            raise IndexError(f"row {row_id} out of range 0..{len(self) - 1}")
        return {name: col.get(row_id) for name, col in self._columns.items()}

    def rows(self, row_ids: Iterable[int] | np.ndarray) -> list[dict[str, object]]:
        ids = np.asarray(list(row_ids), dtype=np.int64)
        taken = {name: col.take(ids) for name, col in self._columns.items()}
        return [
            {name: taken[name][i] for name in self._columns} for i in range(len(ids))
        ]

    def scan(self) -> list[dict[str, object]]:
        """All rows as dicts (row order)."""
        return self.rows(np.arange(len(self)))

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #

    def mask(self, **equals) -> np.ndarray:
        """Conjunctive equality mask, e.g. ``table.mask(category="tennis")``."""
        out = np.ones(len(self), dtype=bool)
        for name, value in equals.items():
            out &= self.column(name).equals_mask(value)
        return out

    def select_ids(self, **equals) -> np.ndarray:
        """Row ids matching the conjunctive equality predicate."""
        return np.nonzero(self.mask(**equals))[0]

    def select(self, **equals) -> list[dict[str, object]]:
        """Rows matching the conjunctive equality predicate."""
        return self.rows(self.select_ids(**equals))

    def where(self, mask: np.ndarray) -> list[dict[str, object]]:
        """Rows selected by an externally-built boolean mask."""
        if mask.shape != (len(self),):
            raise ValueError(
                f"mask length {mask.shape} does not match table length {len(self)}"
            )
        return self.rows(np.nonzero(mask)[0])
