"""Crash-safe catalogue persistence.

The meta-index survives process restarts by saving the catalogue to a
single JSON document: schemas plus column values.  JSON keeps the format
inspectable (handy when debugging detector output); the data volumes of
a video meta-index are tiny by database standards.

Extraction is the expensive step, so the snapshot is the durable asset —
and it is written accordingly (format version 2):

- **Atomic replace.** The document goes to ``<path>.tmp`` in the same
  directory, is flushed and fsynced, and only then renamed over *path*
  with :func:`os.replace`.  A reader never observes a half-written
  snapshot.
- **Checksummed.** The document embeds a CRC32 of its canonicalised
  table payload; :func:`load_catalog` recomputes it, so silent torn or
  bit-rotted snapshots are detected, not parsed into garbage.
- **Generational.** The previous snapshot is rotated to ``<path>.prev``
  before the replace.  When the current generation is missing or
  corrupt, :func:`load_catalog` falls back to the last good one, so a
  crash at *any* point of the write loses at most the newest save.

- **Extensible in O(change).** A frequent committer (streaming ingest:
  once per chunk) appends one checksummed, fsynced JSON line per commit
  to ``<path>.delta`` (:class:`DeltaLog`) instead of rewriting the
  snapshot; :func:`load_catalog` returns base ⊕ replayed deltas.  A
  record names the checksum of the base it extends, so a log whose base
  was since folded into a new snapshot (*compaction*) is stale, ignored.

Every write step passes a named crash point
(:mod:`repro.storage.crashpoints`); the durability test matrix kills the
writer at each one and asserts recovery.  Version-1 documents (no
checksum, written non-atomically by earlier releases) still load.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.storage.catalog import Catalog
from repro.storage.crashpoints import trip
from repro.storage.journal import durable_append
from repro.storage.table import SchemaError

__all__ = [
    "save_catalog",
    "load_catalog",
    "verify_snapshot",
    "snapshot_generations",
    "snapshot_checksum",
    "tables_document",
    "DeltaLog",
    "read_delta_log",
    "CatalogCorruptionError",
    "SnapshotReport",
]

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


class CatalogCorruptionError(ValueError):
    """A snapshot file is torn, checksum-bad, ragged or unreadable."""


def tables_document(catalog: Catalog) -> dict:
    """The JSON form of every table: ``{name: {"schema", "columns"}}``."""
    return {
        name: {
            "schema": catalog.table(name).schema,
            "columns": {
                column: [
                    value.item() if hasattr(value, "item") else value
                    for value in catalog.table(name).column(column).values()
                ]
                for column in catalog.table(name).column_names
            },
        }
        for name in catalog.table_names
    }


def _payload_text(tables: dict) -> str:
    """Canonical serialisation of the tables payload (what the CRC covers)."""
    return json.dumps(tables, sort_keys=True, separators=(",", ":"))


def snapshot_generations(path: str | Path) -> tuple[Path, Path]:
    """The (current, previous) snapshot paths for *path*."""
    path = Path(path)
    return path, path.with_name(path.name + ".prev")


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Atomically write every table of *catalog* to *path*.

    Write protocol: serialise, write + fsync ``<path>.tmp``, rotate the
    live snapshot to ``<path>.prev``, then ``os.replace`` the temp file
    over *path*.  A crash anywhere leaves either the new snapshot or
    the previous good generation loadable — never a torn file at the
    live path.
    """
    path, prev = snapshot_generations(path)
    tables = tables_document(catalog)
    payload = _payload_text(tables)
    document = {
        "version": _FORMAT_VERSION,
        "checksum": zlib.crc32(payload.encode("utf-8")),
        "tables": tables,
    }
    text = json.dumps(document)

    trip("snapshot-pre-temp-write")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    trip("snapshot-post-temp-write")
    trip("snapshot-pre-rotate")
    if path.exists():
        os.replace(path, prev)
    trip("snapshot-pre-replace")
    os.replace(tmp, path)
    trip("snapshot-post-replace")
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Flush the directory entry so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms/filesystems without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# -- delta log: O(change) commits between whole-snapshot saves ------------ #

_HEAD = re.compile(r'\{"version": \d+, "checksum": (\d+),')


def snapshot_checksum(path: str | Path) -> int | None:
    """The checksum the snapshot file at *path* stores (unverified, read
    from the file's head: O(1)); ``None`` when there is none to read."""
    try:
        with open(path, encoding="utf-8") as handle:
            match = _HEAD.match(handle.read(64))
    except (OSError, UnicodeDecodeError):
        return None
    return int(match.group(1)) if match else None


def _delta_crc(base: int, delta: dict) -> tuple[int, str]:
    # Keys unsorted: a replaced table's column order is snapshot bytes.
    body = json.dumps(delta, separators=(",", ":"))
    return zlib.crc32(f"{base}{body}".encode("utf-8")), body


class DeltaLog:
    """Writer's handle on ``<path>.delta``; open it right after saving the
    snapshot at *path* (that folded any earlier log: it is removed here).
    *marks*: the caller's note of what base ⊕ log holds, set per append."""

    @staticmethod
    def path_of(path: str | Path) -> Path:
        return Path(path).with_name(Path(path).name + ".delta")

    def __init__(self, path: str | Path, marks=None):
        self.snapshot = Path(path)
        self.path = self.path_of(path)
        self.path.unlink(missing_ok=True)
        self.base = snapshot_checksum(path)
        self.base_bytes = self.snapshot.stat().st_size
        self.log_bytes = 0
        self.marks = marks

    def append(self, delta: dict, marks=None) -> bool:
        """Durably append one record (format: :func:`read_delta_log`).

        False, nothing written: the caller must compact (save a snapshot,
        open a new log) — the live snapshot is no longer this log's base,
        an append died part-way, or the log outgrew the base (~3x amortised).
        """
        stale = self.base is None or snapshot_checksum(self.snapshot) != self.base
        if stale or self.log_bytes > self.base_bytes:
            return False
        crc, body = _delta_crc(self.base, delta)
        data = f'{{"base":{self.base},"crc":{crc},"delta":{body}}}\n'.encode("utf-8")
        try:
            durable_append(self.path, data, "delta")
        except BaseException:
            self.base = None  # a partial line may be on disk: never append after it
            raise
        if not self.log_bytes:
            _fsync_directory(self.path.parent)  # the new log's directory entry
        self.log_bytes += len(data)
        self.marks = marks
        return True


def read_delta_log(path: str | Path) -> tuple[list[dict], bool]:
    """``(records, torn_tail)`` of the delta log beside the snapshot at
    *path*, each record checksummed; empty when there is no log.

    A record is ``{"base": checksum of the snapshot it extends, "crc",
    "delta": {"rows": {table: {column: [appended values]}}, "cells":
    [[table, key_column, key, column, value]], "tables": {table:
    {"schema", "columns"} | null}}}``.  Bytes after the last newline are
    a torn append (recoverable); a bad complete line is corruption.
    """
    log = DeltaLog.path_of(path)
    try:
        lines = log.read_bytes().split(b"\n")
    except FileNotFoundError:
        return [], False
    torn = lines.pop() != b""
    records = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
            if _delta_crc(record["base"], record["delta"])[0] != record["crc"]:
                raise ValueError("checksum mismatch")
        except (ValueError, KeyError, TypeError) as exc:
            raise CatalogCorruptionError(f"{log.name}: CORRUPT line {number} ({exc})") from exc
        records.append(record)
    return records, torn


def _replay_delta_log(document: dict, path: Path) -> None:
    """Fold the delta records of *path* that extend *document* into its tables."""
    tables = document["tables"]
    for record in read_delta_log(path)[0]:
        if record["base"] != document.get("checksum"):
            continue  # stale: that base was already folded into a newer one
        delta = record["delta"]
        try:
            for name, columns in delta.get("rows", {}).items():
                for column, values in columns.items():
                    tables[name]["columns"][column].extend(values)
            for name, key_column, key, column, value in delta.get("cells", []):
                columns = tables[name]["columns"]
                columns[column][columns[key_column].index(key)] = value
            for name, table in delta.get("tables", {}).items():
                tables[name] = table
                if table is None:
                    del tables[name]
        except (LookupError, ValueError, TypeError, AttributeError) as exc:
            raise CatalogCorruptionError(f"{path.name}.delta: bad record ({exc!r})") from exc


def _read_document(path: Path) -> dict:
    """Parse and checksum-verify one snapshot file (no fallback)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogCorruptionError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogCorruptionError(f"torn/unparseable snapshot {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise CatalogCorruptionError(f"snapshot {path} is not a JSON object")
    version = document.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise CatalogCorruptionError(
            f"unsupported catalogue format version {version!r} in {path}"
        )
    if version >= 2:
        expected = document.get("checksum")
        actual = zlib.crc32(_payload_text(document.get("tables", {})).encode("utf-8"))
        if expected != actual:
            raise CatalogCorruptionError(
                f"checksum mismatch in {path}: stored {expected!r}, computed {actual}"
            )
    return document


def _catalog_from_document(document: dict, source: Path) -> Catalog:
    """Bulk-load a parsed document into a fresh catalogue."""
    catalog = Catalog()
    for name, payload in document["tables"].items():
        table = catalog.create_table(name, payload["schema"])
        columns = dict(payload["columns"])
        bools = {c for c, t in payload["schema"].items() if t == "bool"}
        for column in bools:
            # Version-1 writers serialised numpy bools leniently.
            columns[column] = [bool(v) for v in columns.get(column, [])]
        try:
            table.load_columns(columns)
        except (SchemaError, TypeError) as exc:
            raise CatalogCorruptionError(f"snapshot {source}: {exc}") from exc
    return catalog


def load_catalog(path: str | Path) -> Catalog:
    """Rebuild a catalogue from a snapshot written by :func:`save_catalog`.

    Tries the live generation first; when it is missing, torn or fails
    its checksum, falls back to ``<path>.prev`` (the rotation target of
    the last successful save), then folds in the ``<path>.delta`` records
    naming the loaded generation's checksum (mid-compaction ``.prev`` is
    the base the surviving log extends).  Raises
    :class:`CatalogCorruptionError` when no generation is loadable or the
    log is damaged before its tail, or :class:`FileNotFoundError` when
    neither file exists at all.
    """
    current, prev = snapshot_generations(path)
    if not current.exists() and not prev.exists():
        raise FileNotFoundError(f"no snapshot at {current} (nor {prev.name})")
    errors: list[str] = []
    for candidate in (current, prev):
        if not candidate.exists():
            errors.append(f"{candidate.name}: missing")
            continue
        try:
            document = _read_document(candidate)
        except CatalogCorruptionError as exc:
            errors.append(str(exc))
            continue
        # A damaged log raises: falling back would drop what it committed.
        _replay_delta_log(document, current)
        try:
            return _catalog_from_document(document, candidate)
        except CatalogCorruptionError as exc:
            errors.append(str(exc))
    raise CatalogCorruptionError(
        "no loadable snapshot generation: " + " | ".join(errors)
    )


@dataclass
class SnapshotReport:
    """`repro fsck` verdict for one snapshot file.

    Attributes:
        path: the file checked.
        ok: loadable end to end (parse + checksum + column shape).
        version: format version, when parseable.
        n_tables: table count, when loadable.
        n_rows: total row count, when loadable.
        error: what failed, when not ok.
    """

    path: Path
    ok: bool
    version: int | None = None
    n_tables: int = 0
    n_rows: int = 0
    error: str | None = None


def verify_snapshot(path: str | Path) -> SnapshotReport:
    """Fully validate one snapshot file without fallback (fsck helper)."""
    path = Path(path)
    if not path.exists():
        return SnapshotReport(path=path, ok=False, error="missing")
    try:
        document = _read_document(path)
        catalog = _catalog_from_document(document, path)
    except CatalogCorruptionError as exc:
        version = None
        try:
            version = json.loads(path.read_text(encoding="utf-8")).get("version")
        except Exception:  # noqa: BLE001 — best-effort detail for the report
            pass
        return SnapshotReport(path=path, ok=False, version=version, error=str(exc))
    return SnapshotReport(
        path=path,
        ok=True,
        version=document["version"],
        n_tables=len(catalog.table_names),
        n_rows=sum(len(catalog.table(name)) for name in catalog.table_names),
    )
