"""Typed append-only columns.

Numeric and boolean columns keep their values in geometrically-grown
NumPy buffers so scans and filters are vectorised; string columns use a
Python list (strings do not vectorise usefully).  Row ids are implicit
positions — the column-store convention Monet made famous.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["Column", "IntColumn", "FloatColumn", "StrColumn", "BoolColumn", "column_for"]


class Column:
    """Abstract column interface."""

    #: Type tag used by schemas and persistence ("int" / "float" / ...).
    type_name: str = ""

    def __len__(self) -> int:
        raise NotImplementedError

    def append(self, value) -> None:
        raise NotImplementedError

    def extend(self, values: Iterable) -> None:
        """Append many values; subclasses vectorise where they can."""
        for value in values:
            self.append(value)

    def get(self, row: int):
        raise NotImplementedError

    def values(self) -> np.ndarray | list:
        """All values as an array (numeric) or list (strings)."""
        raise NotImplementedError

    def take(self, rows: np.ndarray) -> list:
        """Values at the given row positions."""
        raise NotImplementedError

    def equals_mask(self, value) -> np.ndarray:
        """Boolean mask of rows equal to *value*."""
        raise NotImplementedError


class _NumpyColumn(Column):
    """Shared buffer management for NumPy-backed columns."""

    _dtype: np.dtype

    def __init__(self, initial: Iterable | None = None):
        self._buffer = np.empty(16, dtype=self._dtype)
        self._size = 0
        if initial is not None:
            for value in initial:
                self.append(value)

    def __len__(self) -> int:
        return self._size

    def _grow_to(self, capacity: int) -> None:
        if capacity <= len(self._buffer):
            return
        new_capacity = max(capacity, len(self._buffer) * 2)
        new_buffer = np.empty(new_capacity, dtype=self._dtype)
        new_buffer[: self._size] = self._buffer[: self._size]
        self._buffer = new_buffer

    def append(self, value) -> None:
        self._grow_to(self._size + 1)
        self._buffer[self._size] = self._cast(value)
        self._size += 1

    def extend(self, values: Iterable) -> None:
        """Bulk append through one buffer write (the snapshot-load path)."""
        array = self._cast_bulk(values)
        if len(array) == 0:
            return
        self._grow_to(self._size + len(array))
        self._buffer[self._size : self._size + len(array)] = array
        self._size += len(array)

    def _cast(self, value):
        raise NotImplementedError

    def _cast_bulk(self, values: Iterable) -> np.ndarray:
        """Cast a batch to the buffer dtype with `_cast`-equivalent strictness."""
        raise NotImplementedError

    def get(self, row: int):
        if not 0 <= row < self._size:
            raise IndexError(f"row {row} out of range 0..{self._size - 1}")
        return self._buffer[row].item()

    def values(self) -> np.ndarray:
        """A read-only view of the live portion of the buffer."""
        view = self._buffer[: self._size]
        view.flags.writeable = False
        return view

    def take(self, rows: np.ndarray) -> list:
        return [v.item() for v in self._buffer[: self._size][rows]]

    def equals_mask(self, value) -> np.ndarray:
        return self._buffer[: self._size] == self._cast(value)


class IntColumn(_NumpyColumn):
    """64-bit integer column."""

    type_name = "int"
    _dtype = np.dtype(np.int64)

    def _cast(self, value) -> int:
        out = int(value)
        if isinstance(value, float) and value != out:
            raise TypeError(f"refusing lossy cast of {value} to int")
        return out

    def _cast_bulk(self, values: Iterable) -> np.ndarray:
        array = np.asarray(list(values))
        if array.size == 0:
            return np.empty(0, dtype=self._dtype)
        if not np.issubdtype(array.dtype, np.integer):
            raise TypeError(f"refusing lossy bulk cast of {array.dtype} to int")
        return array.astype(self._dtype)


class FloatColumn(_NumpyColumn):
    """Float64 column."""

    type_name = "float"
    _dtype = np.dtype(np.float64)

    def _cast(self, value) -> float:
        return float(value)

    def _cast_bulk(self, values: Iterable) -> np.ndarray:
        return np.asarray([float(v) for v in values], dtype=self._dtype)


class BoolColumn(_NumpyColumn):
    """Boolean column."""

    type_name = "bool"
    _dtype = np.dtype(bool)

    def _cast(self, value) -> bool:
        if not isinstance(value, (bool, np.bool_)):
            raise TypeError(f"expected a bool, got {value!r}")
        return bool(value)

    def _cast_bulk(self, values: Iterable) -> np.ndarray:
        values = list(values)
        for value in values:
            if not isinstance(value, (bool, np.bool_)):
                raise TypeError(f"expected a bool, got {value!r}")
        return np.asarray(values, dtype=self._dtype)


class StrColumn(Column):
    """String column (Python-list backed)."""

    type_name = "str"

    def __init__(self, initial: Iterable[str] | None = None):
        self._values: list[str] = []
        if initial is not None:
            for value in initial:
                self.append(value)

    def __len__(self) -> int:
        return len(self._values)

    def append(self, value) -> None:
        if not isinstance(value, str):
            raise TypeError(f"expected a str, got {value!r}")
        self._values.append(value)

    def extend(self, values: Iterable) -> None:
        values = list(values)
        for value in values:
            if not isinstance(value, str):
                raise TypeError(f"expected a str, got {value!r}")
        self._values.extend(values)

    def get(self, row: int) -> str:
        return self._values[row]

    def values(self) -> list[str]:
        return list(self._values)

    def take(self, rows: np.ndarray) -> list[str]:
        return [self._values[int(r)] for r in rows]

    def equals_mask(self, value) -> np.ndarray:
        return np.fromiter(
            (v == value for v in self._values), dtype=bool, count=len(self._values)
        )


_COLUMN_TYPES = {
    cls.type_name: cls for cls in (IntColumn, FloatColumn, StrColumn, BoolColumn)
}


def column_for(type_name: str) -> Column:
    """Instantiate an empty column of the given type tag."""
    if type_name not in _COLUMN_TYPES:
        raise ValueError(
            f"unknown column type {type_name!r}; expected one of {sorted(_COLUMN_TYPES)}"
        )
    return _COLUMN_TYPES[type_name]()
