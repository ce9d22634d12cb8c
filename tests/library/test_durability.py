"""End-to-end durability: checkpointed indexing, resume, persistent quarantine.

The acceptance properties of the durability layer at library level:

- a batch killed mid-checkpoint resumes from the journal, re-indexing
  only uncommitted videos, and the final snapshot is identical to an
  uninterrupted run (same tables, same checksum);
- a detector quarantined by consecutive failures stays quarantined in a
  fresh engine that restores the snapshot, until a version bump clears
  it.
"""

import json

import pytest

from repro.dataset import build_australian_open
from repro.faults import CrashPoint, FaultInjector, FaultPlan, FaultSpec, SimulatedCrash
from repro.grammar.runtime import (
    DetectorStatus,
    IsolationPolicy,
    PermanentDetectorError,
    RunPolicy,
)
from repro.grammar.tennis import build_tennis_fde
from repro.library.indexing import LibraryIndexer, default_journal_path
from repro.storage.journal import IndexingJournal

N_VIDEOS = 3


def make_indexer(policy: RunPolicy | None = None) -> LibraryIndexer:
    dataset = build_australian_open(seed=7, video_shots=4)
    return LibraryIndexer(dataset, fde=build_tennis_fde(policy=policy))


def plan_names(indexer: LibraryIndexer) -> list[str]:
    return [plan.name for plan in indexer.dataset.video_plans[:N_VIDEOS]]


def snapshot_document(path) -> dict:
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """An uninterrupted checkpointed run of the first N videos."""
    path = tmp_path_factory.mktemp("reference") / "meta.json"
    indexer = make_indexer()
    records = indexer.index_checkpointed(path, limit=N_VIDEOS)
    assert len(records) == N_VIDEOS
    return snapshot_document(path)


class TestResumeAfterCrash:
    @pytest.fixture(scope="class")
    def resumed(self, tmp_path_factory):
        """Kill the batch during the second video's snapshot, then resume."""
        path = tmp_path_factory.mktemp("resumed") / "meta.json"
        crashed = make_indexer()
        with CrashPoint("snapshot-pre-replace", after=1):
            with pytest.raises(SimulatedCrash):
                crashed.index_checkpointed(path, limit=N_VIDEOS)

        journal = IndexingJournal(default_journal_path(path))
        committed_before = set(journal.committed())
        interrupted_before = journal.interrupted()

        fresh = make_indexer()
        restored = fresh.restore_snapshot(path)
        records = fresh.index_checkpointed(path, limit=N_VIDEOS, resume=True)
        return {
            "names": plan_names(fresh),
            "committed_before": committed_before,
            "interrupted_before": interrupted_before,
            "restored": restored,
            "reindexed": [record.plan.name for record in records],
            "document": snapshot_document(path),
            "journal": journal,
        }

    def test_journal_pinpoints_the_interrupted_video(self, resumed):
        names = resumed["names"]
        assert resumed["committed_before"] == {names[0]}
        assert resumed["interrupted_before"] == [names[1]]

    def test_resume_reindexes_only_uncommitted_videos(self, resumed):
        names = resumed["names"]
        assert resumed["restored"] == 1  # the crash left generation 1 on disk
        assert resumed["reindexed"] == names[1:]

    def test_resumed_snapshot_identical_to_uninterrupted_run(self, resumed, reference):
        document = resumed["document"]
        assert document["tables"] == reference["tables"]
        assert document["checksum"] == reference["checksum"]

    def test_journal_fully_committed_after_resume(self, resumed):
        journal = resumed["journal"]
        assert set(journal.committed()) == set(resumed["names"])
        assert journal.interrupted() == []

    def test_crash_between_snapshot_and_commit_record(self, tmp_path, reference):
        """The commit window: snapshot durable, commit record lost.

        Appends run begin/commit per video, so ``after=3`` kills the
        second video's *commit* — its data is already in the snapshot
        but the journal never promised it.  Resume must skip it (it is
        in the restored model) and only re-index the third video.
        """
        path = tmp_path / "meta.json"
        crashed = make_indexer()
        with CrashPoint("journal-pre-append", after=3):
            with pytest.raises(SimulatedCrash):
                crashed.index_checkpointed(path, limit=N_VIDEOS)

        fresh = make_indexer()
        restored = fresh.restore_snapshot(path)
        assert restored == 2  # both videos made it into the snapshot
        records = fresh.index_checkpointed(path, limit=N_VIDEOS, resume=True)
        assert [record.plan.name for record in records] == [plan_names(fresh)[2]]
        document = snapshot_document(path)
        assert document["tables"] == reference["tables"]
        assert document["checksum"] == reference["checksum"]


QUARANTINE_POLICY = RunPolicy(
    isolation=IsolationPolicy.QUARANTINE, quarantine_after=2
)


class TestQuarantinePersistence:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        """Quarantine the shape detector, checkpoint, hand back the path."""
        path = tmp_path_factory.mktemp("quarantine") / "meta.json"
        indexer = make_indexer(policy=QUARANTINE_POLICY)
        plan = FaultPlan(
            [FaultSpec(detector="shape", times=None, error=PermanentDetectorError)]
        )
        FaultInjector(plan, indexer.fde.registry).install()
        indexer.index_checkpointed(path, limit=2)
        assert indexer.fde.runner.is_quarantined("shape")
        return path

    def test_runner_state_is_in_the_snapshot(self, saved):
        document = snapshot_document(saved)
        table = document["tables"]["runner_state"]
        assert "shape" in table["columns"]["detector"]

    def test_quarantine_survives_restart(self, saved):
        fresh = make_indexer(policy=QUARANTINE_POLICY)
        assert not fresh.fde.runner.is_quarantined("shape")
        fresh.restore_snapshot(saved)
        assert fresh.fde.runner.is_quarantined("shape")
        assert fresh.fde.runner.consecutive_failures("shape") == 2

    def test_restored_quarantine_keeps_detector_disabled(self, saved, tmp_path):
        """No fault plan here — only the restored state disables shape."""
        fresh = make_indexer(policy=QUARANTINE_POLICY)
        fresh.restore_snapshot(saved)
        out = tmp_path / "meta.json"
        (record,) = fresh.index_checkpointed(out, limit=3, resume=True)
        assert record.health is not None
        assert record.health.outcomes["shape"].status is DetectorStatus.QUARANTINED

    def test_version_bump_clears_restored_quarantine(self, saved):
        fresh = make_indexer(policy=QUARANTINE_POLICY)
        fresh.restore_snapshot(saved)
        fresh.fde.registry.bump_version("shape")
        assert not fresh.fde.runner.is_quarantined("shape")
        assert fresh.fde.runner.export_state()["quarantined_version"] == {}
