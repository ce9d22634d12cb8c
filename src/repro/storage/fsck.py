"""Consistency check of a saved meta-index and its indexing journal.

:func:`fsck` verifies both snapshot generations (checksum, format,
column shape), the delta log beside them (record checksums; live over
the loadable generation, or stale — already folded), the checksummed
ANN tables riding in the snapshot, and the journal — then cross-checks
against the *folded* state (base ⊕ delta log): committed videos must be
in it, and streaming chunk records are deep-checked against its resume
state (per-stream commit seqs increase, gaps only where an orphaned
``chunk_begin`` explains them, watermarks are monotone, and no
``chunk_commit`` is ahead of the resume state).  It
returns a :class:`FsckReport`; ``repro fsck`` only prints it and maps
:attr:`FsckReport.problems` to the exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.ir.ann import AnnSnapshotError, has_ann_tables, load_ann_from_catalog
from repro.library.indexing import default_journal_path
from repro.library.persistence import catalog_to_model, catalog_to_stream_state
from repro.storage.journal import IndexingJournal, JournalReport
from repro.storage.persist import CatalogCorruptionError, load_catalog, read_delta_log
from repro.storage.persist import snapshot_checksum, snapshot_generations, verify_snapshot

__all__ = ["FsckReport", "fsck"]


@dataclass
class FsckReport:
    """What :func:`fsck` found.

    Attributes:
        lines: the human-readable report, one entry per printed line
            (recoverable conditions and warnings appear only here).
        problems: fatal inconsistencies; empty means the pair is clean.
    """

    lines: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _describe(report) -> str:
    if report.ok:
        return (
            f"OK (v{report.version}, checksum ok, "
            f"{report.n_tables} tables, {report.n_rows} rows)"
        )
    return f"CORRUPT — {report.error}"


def _check_snapshots(metaindex, out: FsckReport) -> int | None:
    """Verify both generations; the checksum of the one ``load_catalog`` loads."""
    current, prev = snapshot_generations(metaindex)
    current_report = verify_snapshot(current)
    out.lines.append(f"{current.name}: {_describe(current_report)}")
    if not current_report.ok:
        out.problems.append(f"current snapshot: {current_report.error}")
    if prev.exists():
        prev_report = verify_snapshot(prev)
        out.lines.append(f"{prev.name}: {_describe(prev_report)}")
        if not current_report.ok and prev_report.ok:
            out.lines.append(f"recovery: load_catalog falls back to {prev.name}")
        if not current_report.ok and not prev_report.ok:
            out.problems.append(f"previous snapshot: {prev_report.error}")
    elif not current_report.ok:
        out.problems.append("no previous generation to fall back to")
    return snapshot_checksum(current if current_report.ok else prev)


def _check_delta(metaindex, base: int | None, out: FsckReport) -> None:
    """Verify ``<metaindex>.delta`` against the generation (*base*) it extends."""
    try:
        records, torn = read_delta_log(metaindex)
    except CatalogCorruptionError as exc:
        out.lines.append(f"delta: {exc}")
        out.problems.append(f"delta log: {exc}")
        return
    if not records and not torn:
        return  # no log (or an empty one): nothing to report
    live = [record for record in records if record["base"] == base]
    stale = bool(records) and not live
    named = records[-1]["base"] if stale else base
    verdict = "stale (already folded)" if stale else "torn tail (recoverable)" if torn else "OK"
    out.lines.append(f"delta: {len(live or records)} record(s) over base {named} — {verdict}")


def _check_ann(catalog, out: FsckReport) -> int | None:
    """Verify the ANN tables; returns the generation the index was built at."""
    if catalog is None or not has_ann_tables(catalog):
        return None
    try:
        index, _meta = load_ann_from_catalog(catalog)
    except AnnSnapshotError as exc:
        out.lines.append(f"ann: CORRUPT — {exc}")
        out.problems.append(f"ann snapshot: {exc}")
        return None
    out.lines.append(
        f"ann: OK ({index.n_vectors} vectors, {index.n_cells} cells, checksums ok)"
    )
    return index.generation


def _check_chunk_records(
    report: JournalReport, states: dict, names: set[str] | None, out: FsckReport
) -> None:
    """Deep-check streaming chunk records against the folded snapshot.

    Fatal: a committed chunk the folded state does not cover, regressed
    watermarks, unexplained seq gaps.  Orphaned ``chunk_begin`` tails
    are *recoverable* — they appear in the lines, never in the
    problems.  Generation is a per-process counter, so a non-increasing
    generation across commits marks a crash-resume epoch boundary
    (reported as "N resume(s)"), not a fault.
    """
    for stream in sorted(report.chunk_commits):
        commits = report.chunk_commits[stream]
        orphans = set(report.orphan_chunks.get(stream, []))
        last_seq = last_watermark = last_generation = None
        restarts = 0
        for record in commits:
            seq = int(record["seq"])
            watermark = int(record["watermark"])
            generation = int(record["generation"])
            if last_seq is not None:
                if seq <= last_seq:
                    out.problems.append(
                        f"stream {stream!r}: chunk seq {seq} not increasing "
                        f"after {last_seq}"
                    )
                else:
                    # A committed-seq gap is legal only when the missing
                    # seqs died in flight (crash between the delta append
                    # and the commit append) and left begin records behind.
                    unexplained = [
                        s for s in range(last_seq + 1, seq) if s not in orphans
                    ]
                    if unexplained:
                        out.problems.append(
                            f"stream {stream!r}: committed seq jumps "
                            f"{last_seq}->{seq} with no begin record for "
                            f"seq(s) {unexplained}"
                        )
                if watermark < last_watermark:
                    out.problems.append(
                        f"stream {stream!r}: watermark regressed "
                        f"{last_watermark}->{watermark} at seq {seq}"
                    )
                if generation <= last_generation:
                    # The new epoch's per-process counter starts over and
                    # may land at or below the old one.
                    restarts += 1
            last_seq, last_watermark, last_generation = seq, watermark, generation

        line = (
            f"  stream {stream}: {len(commits)} committed chunk(s), "
            f"watermark {last_watermark}"
        )
        if restarts:
            line += f", {restarts} resume(s)"
        state = states.get(stream)
        if state is not None:
            if int(state["watermark"]) < last_watermark:
                # chunk_commit promises base ⊕ delta log covers all
                # below its watermark; a resume state behind that lost
                # committed frames.
                out.problems.append(
                    f"stream {stream!r}: snapshot resume state (watermark "
                    f"{state['watermark']}) is behind the last committed "
                    f"chunk (watermark {last_watermark})"
                )
            line += f", in flight (resumes at {state['watermark']})"
        elif names is not None and stream not in names:
            out.problems.append(
                f"stream {stream!r}: committed chunks but the snapshot has "
                "neither its video nor its resume state"
            )
        else:
            line += ", finalised"
        out.lines.append(line)

    for stream in sorted(report.orphan_chunks):
        if stream not in report.chunk_commits:
            out.lines.append(f"  stream {stream}: no committed chunks yet")
        seqs = report.orphan_chunks[stream]
        out.lines.append(
            f"  stream {stream}: orphaned chunk_begin seq(s) "
            f"{', '.join(map(str, seqs))} — in flight at a crash; "
            "recoverable, resume replays from the snapshot watermark"
        )


def _check_journal(journal_path: Path, catalog, ann_generation, out: FsckReport) -> None:
    report = IndexingJournal(journal_path).verify()
    line = (
        f"{journal_path.name}: {len(report.records)} record(s), "
        f"{len(report.committed)} committed"
    )
    if report.torn_tail:
        line += ", torn tail (recoverable with --resume)"
        out.problems.append("journal has a torn final line")
    if report.corrupt_lines:
        line += f", CORRUPT line(s) {report.corrupt_lines}"
        out.problems.append(f"journal line(s) {report.corrupt_lines} unparseable")
    if report.interrupted:
        line += f", interrupted: {', '.join(report.interrupted)}"
        out.problems.append(
            f"video(s) {', '.join(report.interrupted)} began but never committed"
        )
    out.lines.append(line)

    states, names = {}, None
    if catalog is not None:  # an unloadable snapshot is already reported
        names = {video.name for video in catalog_to_model(catalog).videos}
        states = catalog_to_stream_state(catalog)
        missing = sorted(set(report.committed) - names)
        if missing:
            out.problems.append(
                f"committed video(s) missing from snapshot: {', '.join(missing)}"
            )
            out.lines.append(
                f"cross-check: committed but not in snapshot: {', '.join(missing)}"
            )
    _check_chunk_records(report, states, names, out)

    last_generation = max(
        (int(r["generation"]) for records in report.chunk_commits.values() for r in records),
        default=-1,
    )
    if ann_generation is not None and 0 <= ann_generation < last_generation:
        out.lines.append(
            f"ann: STALE — built at generation {ann_generation}, chunk "
            f"commits reach generation {last_generation}; search labels such "
            "results ann_stale (rebuild with 'repro ann-build')"
        )


def fsck(metaindex: str | Path, journal: str | Path | None = None) -> FsckReport:
    """Check the snapshot at *metaindex* and its journal for consistency.

    *journal* defaults to ``<metaindex>.journal``; a missing journal is
    reported, not a problem.  Nothing is modified.
    """
    out = FsckReport()
    _check_delta(metaindex, _check_snapshots(metaindex, out), out)
    try:
        catalog = load_catalog(metaindex)  # base (or .prev) ⊕ delta log
    except (ValueError, FileNotFoundError):
        catalog = None
    ann_generation = _check_ann(catalog, out)
    journal_path = Path(journal or default_journal_path(metaindex))
    if journal_path.exists():
        _check_journal(journal_path, catalog, ann_generation, out)
    else:
        out.lines.append(f"{journal_path.name}: no journal")
    return out
