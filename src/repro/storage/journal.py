"""Append-only indexing journal.

Indexing a library is a long batch of expensive per-video extractions;
the journal is the write-ahead record that makes the batch resumable.
Every record is one JSON object per line (``journal.jsonl`` style):

- ``{"op": "begin", "video": name}`` — extraction started;
- ``{"op": "commit", "video": name, "degraded": bool}`` — the video's
  meta-data is durably in a snapshot (the checkpointing indexer saves
  the snapshot *before* appending the commit record, so a commit is a
  promise the data survives);
- ``{"op": "note", ...}`` — free-form annotations (e.g. a snapshot
  marker);
- ``{"op": "chunk_begin", "stream": name, "seq": n, ...}`` /
  ``{"op": "chunk_commit", "stream": name, "seq": n, "watermark": w,
  "generation": g, ...}`` — streaming chunk-append progress.  A
  ``chunk_commit`` is written *after* the chunk's delta-log record is
  fsynced, so it promises base ⊕ log holds every shot up to
  ``watermark``.  Chunk records carry a ``stream`` key (not ``video``)
  so they never perturb the video-level committed/interrupted sets.

Appends are flushed and fsynced, so after a crash the journal is intact
up to at most one torn final line.  :meth:`IndexingJournal.replay`
tolerates exactly that torn tail; corruption anywhere *else* is real
damage and raises :class:`JournalCorruptionError` (``repro fsck``
reports it).  :meth:`IndexingJournal.recover` truncates the torn tail
so a resumed process can append cleanly.

A video whose ``begin`` has no matching ``commit`` was in flight when
the process died; ``repro index --resume`` re-indexes exactly those
plus the never-begun remainder.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.storage.crashpoints import is_armed, trip

__all__ = ["IndexingJournal", "JournalCorruptionError", "JournalReport", "durable_append"]


class JournalCorruptionError(ValueError):
    """A journal line before the final one does not parse."""


@dataclass
class JournalReport:
    """`repro fsck` verdict for one journal file.

    Attributes:
        path: the file checked.
        records: parseable records, in order.
        torn_tail: True when the file ends in a partial line (the
            recoverable crash signature).
        corrupt_lines: 1-based numbers of unparseable non-final lines
            (unrecoverable damage).
        committed: video name -> degraded flag, from commit records.
        interrupted: videos with a begin but no commit, in begin order.
        chunk_commits: stream name -> chunk_commit records, in order.
        orphan_chunks: stream name -> seqs of chunk_begin records with
            no matching chunk_commit (in flight at a crash; recoverable,
            the snapshot's stream_state is the authoritative resume
            point).
    """

    path: Path
    records: list[dict] = field(default_factory=list)
    torn_tail: bool = False
    corrupt_lines: list[int] = field(default_factory=list)
    committed: dict[str, bool] = field(default_factory=dict)
    interrupted: list[str] = field(default_factory=list)
    chunk_commits: dict[str, list[dict]] = field(default_factory=dict)
    orphan_chunks: dict[str, list[int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.corrupt_lines


def durable_append(path: Path, data: bytes, points: str) -> None:
    """Append *data* and fsync, past ``<points>-pre/mid/post-append``."""
    trip(f"{points}-pre-append")
    with open(path, "ab") as handle:
        if is_armed(f"{points}-mid-append"):
            # Simulate dying halfway through the write: flush a prefix
            # of the record's bytes, then crash.
            handle.write(data[: max(1, len(data) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
        trip(f"{points}-mid-append")  # unarmed: uses up one of its `after` skips
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    trip(f"{points}-post-append")


class IndexingJournal:
    """Durable append-only record of indexing progress.

    Appends are serialized on an internal lock, so stray concurrent
    writers cannot interleave half-records.  The parallel indexer does
    not rely on this: it funnels every journal write through its single
    committer thread, which is what keeps the record *order* (and hence
    the journal bytes) identical to a sequential run.

    Args:
        path: the journal file; created on first append.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()

    # -- writing -------------------------------------------------------- #

    def append(self, record: dict) -> None:
        """Append one record durably (fsync before returning)."""
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            durable_append(self.path, data, "journal")

    def begin(self, video: str) -> None:
        """Record that *video*'s extraction has started."""
        self.append({"op": "begin", "video": video})

    def commit(self, video: str, degraded: bool = False) -> None:
        """Record that *video*'s meta-data is durably snapshotted."""
        self.append({"op": "commit", "video": video, "degraded": degraded})

    def note(self, **fields) -> None:
        """Append a free-form annotation record."""
        self.append({"op": "note", **fields})

    def chunk_begin(self, stream: str, seq: int, start: int, stop: int) -> None:
        """Record that chunk *seq* of *stream* (frames [start, stop)) is
        being applied."""
        self.append(
            {"op": "chunk_begin", "stream": stream, "seq": seq, "start": start, "stop": stop}
        )

    def chunk_commit(
        self,
        stream: str,
        seq: int,
        watermark: int,
        frames: int,
        shots: int,
        generation: int,
    ) -> None:
        """Record that chunk *seq* of *stream* is in base ⊕ delta log.

        ``watermark`` is the exactly-once resume point (frames below it
        are in base ⊕ delta log), ``frames``/``shots`` are cumulative stream
        totals and ``generation`` the post-commit indexer generation.
        """
        self.append(
            {
                "op": "chunk_commit",
                "stream": stream,
                "seq": seq,
                "watermark": watermark,
                "frames": frames,
                "shots": shots,
                "generation": generation,
            }
        )

    def clear(self) -> None:
        """Start a fresh journal (a new from-scratch indexing run)."""
        if self.path.exists():
            self.path.unlink()

    def recover(self) -> int:
        """Truncate a torn final line so appends stay parseable.

        Returns:
            How many torn bytes were dropped (0 for a clean journal).
        """
        if not self.path.exists():
            return 0
        data = self.path.read_bytes()
        if not data or data.endswith(b"\n"):
            return 0
        keep = data.rfind(b"\n") + 1  # 0 when no newline at all
        with open(self.path, "r+b") as handle:
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())
        return len(data) - keep

    # -- reading -------------------------------------------------------- #

    def replay(self) -> list[dict]:
        """All records, tolerating (only) a torn final line.

        A missing journal replays as empty; an unparseable line that is
        *not* the torn tail raises :class:`JournalCorruptionError`.
        """
        report = self._scan()
        if report.corrupt_lines:
            raise JournalCorruptionError(
                f"journal {self.path} has unparseable line(s) "
                f"{report.corrupt_lines} before the tail"
            )
        return report.records

    def committed(self) -> dict[str, bool]:
        """video name -> degraded flag for every committed video."""
        out: dict[str, bool] = {}
        for record in self.replay():
            if record.get("op") == "commit":
                out[record["video"]] = bool(record.get("degraded", False))
        return out

    def interrupted(self) -> list[str]:
        """Videos whose begin record has no commit (in-flight at crash)."""
        begun: list[str] = []
        committed: set[str] = set()
        for record in self.replay():
            if record.get("op") == "begin":
                begun.append(record["video"])
            elif record.get("op") == "commit":
                committed.add(record["video"])
        return [name for name in begun if name not in committed]

    def verify(self) -> JournalReport:
        """Full integrity scan for ``repro fsck`` (never raises)."""
        return self._scan()

    def _scan(self) -> JournalReport:
        report = JournalReport(path=self.path)
        if not self.path.exists():
            return report
        data = self.path.read_bytes()
        if not data:
            return report
        report.torn_tail = not data.endswith(b"\n")
        lines = data.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        begun: list[str] = []
        chunk_begun: dict[str, list[int]] = {}
        for number, line in enumerate(lines, start=1):
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict) or "op" not in record:
                    raise ValueError("not a journal record")
            except (ValueError, UnicodeDecodeError):
                if number == len(lines) and report.torn_tail:
                    continue  # the recoverable torn tail
                report.corrupt_lines.append(number)
                continue
            report.records.append(record)
            if record["op"] == "begin":
                begun.append(record["video"])
            elif record["op"] == "commit":
                report.committed[record["video"]] = bool(record.get("degraded", False))
            elif record["op"] == "chunk_begin":
                chunk_begun.setdefault(record["stream"], []).append(int(record["seq"]))
            elif record["op"] == "chunk_commit":
                report.chunk_commits.setdefault(record["stream"], []).append(record)
        report.interrupted = [v for v in begun if v not in report.committed]
        for stream, seqs in chunk_begun.items():
            done = {int(r["seq"]) for r in report.chunk_commits.get(stream, [])}
            orphans = [s for s in seqs if s not in done]
            if orphans:
                report.orphan_chunks[stream] = orphans
        return report
