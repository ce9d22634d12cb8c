"""Set-oriented helpers over tables: group counting for reports."""

from __future__ import annotations

from repro.storage.table import Table

__all__ = ["group_count"]


def group_count(table: Table, column: str) -> dict[object, int]:
    """Count rows per distinct value of *column*."""
    col = table.column(column)
    counts: dict[object, int] = {}
    for row_id in range(len(table)):
        value = col.get(row_id)
        counts[value] = counts.get(value, 0) + 1
    return counts
