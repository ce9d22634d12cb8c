"""``repro.storage.fsck.fsck`` as a library: assertions on the report, no stdout.

Fixtures are a two-video meta-index saved with :func:`save_model` plus a
journal written record by record, then damaged the way each crash would.
"""

import pytest

from repro.core.model import CobraModel
from repro.library.persistence import save_model, stream_state_to_catalog
from repro.storage.catalog import Catalog
from repro.storage.crashpoints import CrashPoint, SimulatedCrash
from repro.storage.fsck import fsck
from repro.storage.journal import IndexingJournal
from repro.storage.persist import (
    CatalogCorruptionError,
    DeltaLog,
    load_catalog,
    save_catalog,
    tables_document,
)


def in_flight(watermark: int) -> dict:
    """Snapshot resume row of stream ``live`` committed up to *watermark*."""
    return dict(stream="live", seq=1, watermark=watermark, scan_base=0, frames=watermark, shots=1)


@pytest.fixture
def library(tmp_path):
    """(snapshot path, journal) of two batch-committed videos."""
    model = CobraModel()
    for name in ("final_2001", "semi_2001"):
        model.add_video(name=name, fps=25.0, n_frames=100)
    path = tmp_path / "meta.json"
    save_model(model, path, stream_state=[in_flight(48)])
    journal = IndexingJournal(tmp_path / "meta.json.journal")
    for name in ("final_2001", "semi_2001"):
        journal.begin(name)
        journal.commit(name)
    return path, journal


def commit_chunk(journal, seq, watermark, generation, stream="live"):
    journal.chunk_begin(stream, seq, watermark - 24, watermark)
    journal.chunk_commit(stream, seq, watermark, frames=watermark, shots=1, generation=generation)


def test_clean_pair_has_no_problems(library):
    path, journal = library
    commit_chunk(journal, 0, 24, generation=3)
    commit_chunk(journal, 1, 48, generation=4)
    report = fsck(path)  # the journal defaults to <snapshot>.journal
    assert report.problems == []
    assert any("2 committed chunk(s), watermark 48" in line for line in report.lines)
    assert any("in flight (resumes at 48)" in line for line in report.lines)


def test_missing_journal_is_reported_not_a_problem(library, tmp_path):
    path, _journal = library
    report = fsck(path, tmp_path / "elsewhere.journal")
    assert report.problems == []
    assert report.lines[-1] == "elsewhere.journal: no journal"


def test_torn_tail_and_interrupted_video(library):
    path, journal = library
    journal.begin("quarter_2001")
    with open(journal.path, "ab") as handle:
        handle.write(b'{"op": "commit", "vid')  # the writer died mid-append
    report = fsck(path, journal.path)
    assert "journal has a torn final line" in report.problems
    assert "video(s) quarter_2001 began but never committed" in report.problems


def test_committed_video_missing_from_snapshot(library):
    path, journal = library
    journal.begin("ghost_2001")
    journal.commit("ghost_2001")
    report = fsck(path, journal.path)
    assert report.problems == ["committed video(s) missing from snapshot: ghost_2001"]


def test_orphan_chunk_is_recoverable(library):
    path, journal = library
    commit_chunk(journal, 0, 24, generation=3)
    commit_chunk(journal, 1, 48, generation=4)
    journal.chunk_begin("live", 2, 48, 72)  # in flight at the crash
    report = fsck(path, journal.path)
    assert report.problems == []
    assert any("orphaned chunk_begin seq(s) 2" in line for line in report.lines)


def test_orphan_explains_a_seq_gap_but_a_bare_gap_is_fatal(library):
    path, journal = library
    commit_chunk(journal, 0, 24, generation=3)
    journal.chunk_begin("live", 1, 24, 48)  # died between snapshot and commit
    commit_chunk(journal, 2, 48, generation=1)  # resumed epoch
    assert fsck(path, journal.path).problems == []
    commit_chunk(journal, 4, 48, generation=2)  # seq 3 never began
    (problem,) = fsck(path, journal.path).problems
    assert "committed seq jumps 2->4 with no begin record for seq(s) [3]" in problem


def test_regressed_watermark_and_seq(library):
    path, journal = library
    commit_chunk(journal, 0, 48, generation=3)
    commit_chunk(journal, 1, 24, generation=4)  # watermark went backwards
    commit_chunk(journal, 1, 48, generation=5)  # seq repeated
    problems = fsck(path, journal.path).problems
    assert any("watermark regressed 48->24 at seq 1" in p for p in problems)
    assert any("chunk seq 1 not increasing after 1" in p for p in problems)


def test_commit_ahead_of_the_snapshot_resume_state(library):
    path, journal = library
    commit_chunk(journal, 0, 24, generation=3)
    commit_chunk(journal, 1, 72, generation=4)  # the snapshot only covers 48
    (problem,) = fsck(path, journal.path).problems
    assert "resume state (watermark 48) is behind the last committed chunk" in problem


def test_committed_chunks_of_a_stream_the_snapshot_never_saw(library):
    path, journal = library
    commit_chunk(journal, 0, 24, generation=3, stream="phantom")
    (problem,) = fsck(path, journal.path).problems
    assert "neither its video nor its resume state" in problem


def test_corrupt_snapshot_without_a_previous_generation(library):
    path, journal = library
    path.write_text(path.read_text()[:-40])
    problems = fsck(path, journal.path).problems
    assert any(p.startswith("current snapshot:") for p in problems)
    assert "no previous generation to fall back to" in problems


# ---------------------------------------------------------------------- #
# The delta log: one case per verdict
# ---------------------------------------------------------------------- #


def state_delta(watermark: int) -> dict:
    """A chunk's delta record body: stream ``live`` advanced to *watermark*."""
    small = Catalog()
    stream_state_to_catalog([in_flight(watermark)], small)
    return {"tables": tables_document(small)}


@pytest.fixture
def streamed(library):
    """The library plus a delta log taking ``live`` from 48 to 72 to 96."""
    path, journal = library
    commit_chunk(journal, 0, 48, generation=3)
    log = DeltaLog(path)
    for seq, watermark in ((1, 72), (2, 96)):
        assert log.append(state_delta(watermark))
        commit_chunk(journal, seq, watermark, generation=3 + seq)
    return path, journal, log


def test_delta_ok_and_chunk_records_checked_against_the_fold(streamed):
    path, journal, log = streamed
    report = fsck(path)
    assert report.problems == []  # the bare base (watermark 48) would be "behind"
    assert f"delta: 2 record(s) over base {log.base} — OK" in report.lines
    assert any("in flight (resumes at 96)" in line for line in report.lines)
    # A commit the fold does not cover is still caught.
    commit_chunk(journal, 3, 120, generation=6)
    (problem,) = fsck(path).problems
    assert "resume state (watermark 96) is behind the last committed chunk" in problem


def test_delta_torn_tail_is_recoverable(streamed):
    path, journal, log = streamed
    base = log.base
    journal.chunk_begin("live", 3, 96, 120)
    with CrashPoint("delta-mid-append"), pytest.raises(SimulatedCrash):
        log.append(state_delta(120))
    assert not log.append(state_delta(120))  # never appends after a partial line
    report = fsck(path)
    assert report.problems == []
    assert f"delta: 2 record(s) over base {base} — torn tail (recoverable)" in report.lines
    assert any("in flight (resumes at 96)" in line for line in report.lines)


def test_delta_corrupt_line_before_the_tail_is_fatal(streamed):
    path, _journal, log = streamed
    lines = log.path.read_bytes().split(b"\n")
    lines[0] = lines[0].replace(b'"watermark":[72]', b'"watermark":[71]')
    log.path.write_bytes(b"\n".join(lines))
    report = fsck(path)
    assert any(line.startswith("delta: ") and "CORRUPT line 1" in line for line in report.lines)
    assert any("CORRUPT line 1 (checksum mismatch)" in p for p in report.problems)
    with pytest.raises(CatalogCorruptionError):
        load_catalog(path)


def test_delta_stale_after_the_base_was_folded(streamed):
    path, _journal, log = streamed
    # Compaction died between "new base durable" and "log removed".
    save_catalog(load_catalog(path), path)
    report = fsck(path)
    assert report.problems == []
    assert f"delta: 2 record(s) over base {log.base} — stale (already folded)" in report.lines
    assert any("in flight (resumes at 96)" in line for line in report.lines)
