"""Named crash points for durability testing.

The storage write path (snapshot save, journal / delta-log append) calls
:func:`trip` at the moments a real process is most likely to die:
before the temp file is written, after it, just before the atomic
rename, halfway through a journal append.  In production every call is
a no-op; a test arms a point with :class:`CrashPoint` and the next trip
raises :class:`SimulatedCrash`, which models ``kill -9`` — it derives
from :class:`BaseException` so no ``except Exception`` recovery code
can accidentally "survive" a crash that a real process would not.

This module lives in :mod:`repro.storage` (not :mod:`repro.faults`) so
the storage layer has no dependency on the grammar runtime; the fault
harness re-exports it.
"""

from __future__ import annotations

__all__ = [
    "SimulatedCrash",
    "CrashPoint",
    "trip",
    "is_armed",
    "SNAPSHOT_POINTS",
    "JOURNAL_POINTS",
    "DELTA_POINTS",
    "STREAM_POINTS",
    "WRITE_POINTS",
]

#: Crash points in the snapshot write path, in execution order.
SNAPSHOT_POINTS = (
    "snapshot-pre-temp-write",
    "snapshot-post-temp-write",
    "snapshot-pre-rotate",
    "snapshot-pre-replace",
    "snapshot-post-replace",
)

#: Crash points in the journal append path, in execution order.
#: ``journal-mid-append`` writes *half* the record's bytes before
#: crashing — the torn-tail case replay must tolerate.
JOURNAL_POINTS = (
    "journal-pre-append",
    "journal-mid-append",
    "journal-post-append",
)

#: Crash points of the durable step of a batch video or stream chunk: the
#: delta-log append (``mid`` writes half), or compaction's log removal.
DELTA_POINTS = (
    "delta-pre-append",
    "delta-mid-append",
    "delta-post-append",
    "compaction-pre-unlink",
)

#: Crash points in the streaming chunk-commit path, in execution order:
#: journal ``chunk_begin`` → model mutation → :data:`DELTA_POINTS` → journal
#: ``chunk_commit`` → generation bump; the kill matrix dies at each edge.
STREAM_POINTS = (
    "chunk-post-begin",
    "chunk-pre-snapshot",
    *DELTA_POINTS,
    "chunk-pre-commit",
    "chunk-pre-generation",
    "chunk-post-generation",
)

#: Every named crash point in the storage write path (the test matrix).
WRITE_POINTS = SNAPSHOT_POINTS + JOURNAL_POINTS + STREAM_POINTS

_armed: dict[str, list[int]] = {}  # point -> [skips remaining, trips remaining (-1 = forever)]


class SimulatedCrash(BaseException):
    """The process "died" at a named crash point.

    Deliberately *not* an :class:`Exception`: recovery code that
    catches broad exceptions must not be able to swallow a simulated
    kill, exactly as it could not swallow a real one.
    """

    def __init__(self, point: str):
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


class CrashPoint:
    """Arm one or more crash points for the duration of a ``with`` block.

    Args:
        points: crash point names (see :data:`WRITE_POINTS`).
        times: how many trips each point delivers before going quiet
            (``None`` = every trip while armed).
        after: how many trips each point lets through unharmed first —
            e.g. ``after=1`` survives the first snapshot save and dies
            during the second (a mid-batch checkpoint crash).

    Example::

        with CrashPoint("snapshot-pre-replace"):
            with pytest.raises(SimulatedCrash):
                save_catalog(catalog, path)
        load_catalog(path)  # the previous good snapshot
    """

    def __init__(self, *points: str, times: int | None = 1, after: int = 0):
        unknown = [p for p in points if p not in WRITE_POINTS]
        if unknown:
            raise ValueError(f"unknown crash point(s) {unknown}; see WRITE_POINTS")
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1 or None, got {times}")
        if after < 0:
            raise ValueError(f"after must be >= 0, got {after}")
        self.points = points
        self.times = times
        self.after = after

    def __enter__(self) -> "CrashPoint":
        for point in self.points:
            _armed[point] = [self.after, -1 if self.times is None else self.times]
        return self

    def __exit__(self, *exc_info) -> None:
        for point in self.points:
            _armed.pop(point, None)


def is_armed(point: str) -> bool:
    """True when *point* would crash on its next :func:`trip`."""
    entry = _armed.get(point)
    return entry is not None and entry[0] == 0 and entry[1] != 0


def trip(point: str) -> None:
    """Crash here if *point* is armed; no-op otherwise."""
    entry = _armed.get(point)
    if entry is None:
        return
    if entry[0] > 0:  # still skipping early trips
        entry[0] -= 1
        return
    if entry[1] == 0:
        return
    if entry[1] > 0:
        entry[1] -= 1
    raise SimulatedCrash(point)
