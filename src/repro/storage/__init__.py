"""A small main-memory column store.

The paper's systems run inside Monet (the MonetDB predecessor): the
meta-index lives in database tables, and the IR engine of Blok et al.
runs "the database approach" — set-oriented operators over columns — in
main memory.  This package is the corresponding substrate:

- :mod:`repro.storage.columns` — typed, append-only columns over NumPy
  buffers,
- :mod:`repro.storage.table` — tables: schema, append, scan, select,
- :mod:`repro.storage.index` — hash secondary indexes,
- :mod:`repro.storage.catalog` — the named-table catalogue,
- :mod:`repro.storage.query` — group counting for reports,
- :mod:`repro.storage.persist` — crash-safe JSON persistence of a
  catalogue: atomic checksummed snapshots with generational fallback,
- :mod:`repro.storage.journal` — append-only indexing journal (the
  resume log of checkpointed library indexing),
- :mod:`repro.storage.crashpoints` — named crash points the durability
  test matrix kills the writer at.
"""

from repro.storage.columns import Column, IntColumn, FloatColumn, StrColumn, BoolColumn
from repro.storage.table import Table, Schema, SchemaError
from repro.storage.index import HashIndex
from repro.storage.catalog import Catalog
from repro.storage.query import group_count
from repro.storage.persist import (
    CatalogCorruptionError,
    SnapshotReport,
    load_catalog,
    save_catalog,
    snapshot_generations,
    verify_snapshot,
)
from repro.storage.journal import IndexingJournal, JournalCorruptionError, JournalReport
from repro.storage.crashpoints import CrashPoint, SimulatedCrash

__all__ = [
    "Column",
    "IntColumn",
    "FloatColumn",
    "StrColumn",
    "BoolColumn",
    "Table",
    "Schema",
    "SchemaError",
    "HashIndex",
    "Catalog",
    "group_count",
    "save_catalog",
    "load_catalog",
    "verify_snapshot",
    "snapshot_generations",
    "CatalogCorruptionError",
    "SnapshotReport",
    "IndexingJournal",
    "JournalCorruptionError",
    "JournalReport",
    "CrashPoint",
    "SimulatedCrash",
]
