"""Secondary indexes over table columns.

A :class:`HashIndex` accelerates equality lookups.  Indexes are built
once over the current table contents and refreshed explicitly — the
incremental-update bookkeeping the FDE needs is handled at the
meta-index level, not here.
"""

from __future__ import annotations

import numpy as np

from repro.storage.table import Table

__all__ = ["HashIndex"]


class HashIndex:
    """value -> row ids map over one column.

    Args:
        table: indexed table.
        column: indexed column name.
    """

    def __init__(self, table: Table, column: str):
        self.table = table
        self.column = column
        self._map: dict[object, list[int]] = {}
        self._indexed_rows = 0
        self.refresh()

    def refresh(self) -> None:
        """Index rows appended since the last refresh."""
        col = self.table.column(self.column)
        for row_id in range(self._indexed_rows, len(col)):
            self._map.setdefault(col.get(row_id), []).append(row_id)
        self._indexed_rows = len(col)

    @property
    def stale(self) -> bool:
        """True when the table has rows the index has not seen."""
        return self._indexed_rows < len(self.table)

    def lookup(self, value) -> np.ndarray:
        """Row ids with the given value (empty array when absent)."""
        return np.asarray(self._map.get(value, []), dtype=np.int64)
