"""Parallel indexing must be invisible in the results.

The acceptance property of the staged committer:
for any worker count, the final snapshot (tables *and* checksum), the
journal, and every health report are identical to a sequential run —
including under fault injection, where failure accounting and quarantine
transitions happen on worker threads.
"""

import json

import pytest

from repro.dataset import build_australian_open
from repro.faults import CrashPoint, FaultInjector, FaultPlan, FaultSpec, SimulatedCrash
from repro.grammar.runtime import (
    IsolationPolicy,
    PermanentDetectorError,
    RunPolicy,
    TransientDetectorError,
)
from repro.grammar.tennis import build_tennis_fde
from repro.library.indexing import LibraryIndexer

N_VIDEOS = 4
WORKER_MATRIX = [1, 2, 8]


def make_indexer(policy: RunPolicy | None = None) -> LibraryIndexer:
    dataset = build_australian_open(seed=7, video_shots=4)
    return LibraryIndexer(dataset, fde=build_tennis_fde(policy=policy))


def snapshot_document(path) -> dict:
    return json.loads(path.read_text())


def outcome_projection(outcome) -> tuple:
    """Everything deterministic about a DetectorOutcome (no wall clock)."""
    return (
        outcome.name,
        outcome.status,
        outcome.attempts,
        outcome.retries,
        type(outcome.error).__name__ if outcome.error is not None else None,
        outcome.error_kind,
        outcome.skipped_because,
    )


def health_projection(indexer: LibraryIndexer) -> list:
    """Per-video health reports minus the inherently non-deterministic
    ``elapsed`` fields, preserving outcome order."""
    out = []
    for report in indexer.health_reports():
        out.append(
            (
                report.video_name,
                report.degraded,
                [outcome_projection(o) for o in report.outcomes.values()],
            )
        )
    return out


def checkpointed_run(tmp_path, workers, policy=None, fault_plan=None, wrap=None):
    path = tmp_path / f"w{workers}" / "meta.json"
    path.parent.mkdir()
    indexer = make_indexer(policy)
    if fault_plan is not None:
        FaultInjector(fault_plan(), indexer.fde.registry).install()
    if wrap is not None:
        wrap(indexer.fde.registry)
    records = indexer.index_checkpointed(path, limit=N_VIDEOS, workers=workers)
    journal = path.with_name(path.name + ".journal").read_bytes()
    return {
        "records": [record.plan.name for record in records],
        "document": snapshot_document(path),
        "snapshot": path.read_bytes(),
        "journal": journal,
        "health": health_projection(indexer),
        "runner_state": indexer.fde.runner.export_state(),
    }


class TestWorkerMatrix:
    """Snapshot, journal and health identical for workers in {1, 2, 8}."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("matrix")
        return {w: checkpointed_run(tmp_path, w) for w in WORKER_MATRIX}

    def test_snapshot_tables_identical(self, runs):
        for workers in WORKER_MATRIX[1:]:
            assert runs[workers]["document"]["tables"] == runs[1]["document"]["tables"]

    def test_snapshot_checksum_identical(self, runs):
        for workers in WORKER_MATRIX[1:]:
            assert runs[workers]["document"]["checksum"] == runs[1]["document"]["checksum"]

    def test_journal_bytes_identical(self, runs):
        for workers in WORKER_MATRIX[1:]:
            assert runs[workers]["journal"] == runs[1]["journal"]

    def test_health_reports_identical(self, runs):
        for workers in WORKER_MATRIX[1:]:
            assert runs[workers]["health"] == runs[1]["health"]

    def test_all_videos_indexed(self, runs):
        for workers in WORKER_MATRIX:
            assert len(runs[workers]["records"]) == N_VIDEOS


SKIP_POLICY = RunPolicy(isolation=IsolationPolicy.SKIP_SUBTREE)
QUARANTINE_POLICY = RunPolicy(
    isolation=IsolationPolicy.QUARANTINE, quarantine_after=2
)


def failing_tennis_plan() -> FaultPlan:
    """Permanent failure in the middle of the DAG, every video: the
    whole ``tennis`` subtree (player, shape, rules) must be skipped
    identically at any worker count."""
    return FaultPlan(
        [FaultSpec(detector="tennis", times=None, error=PermanentDetectorError)]
    )


def fail_after_writing(registry) -> None:
    """``tennis`` registers its objects, then fails transiently once per
    video: the retry clears them and registers them again, so the first
    attempt's object ids are burned."""
    failed: set[str] = set()

    def wrapper(run):
        def flaky(context):
            run(context)
            if context.name not in failed:
                failed.add(context.name)
                raise TransientDetectorError("tennis: lost after writing its objects")

        return flaky

    registry.wrap("tennis", wrapper)


class TestFaultInjectionMatrix:
    """Degraded commits and quarantine transitions stay deterministic."""

    @pytest.fixture(scope="class")
    def skip_runs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("skip")
        return {
            w: checkpointed_run(
                tmp_path, w, policy=SKIP_POLICY, fault_plan=failing_tennis_plan
            )
            for w in WORKER_MATRIX
        }

    @pytest.fixture(scope="class")
    def quarantine_runs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("quarantine")
        return {
            w: checkpointed_run(
                tmp_path, w, policy=QUARANTINE_POLICY, fault_plan=failing_tennis_plan
            )
            for w in WORKER_MATRIX
        }

    def test_retry_after_partial_write_keeps_sequential_ids(self, tmp_path):
        policy = RunPolicy(max_retries=1, backoff_base=0)
        runs = {
            w: checkpointed_run(tmp_path, w, policy=policy, wrap=fail_after_writing)
            for w in (1, 2)
        }
        assert runs[2]["snapshot"] == runs[1]["snapshot"]
        assert runs[2]["journal"] == runs[1]["journal"]
        objects = runs[1]["document"]["tables"]["objects"]["columns"]["object_id"]
        assert objects[0] > 1  # the first attempt's ids stay burned

    def test_skip_subtree_snapshots_identical(self, skip_runs):
        for workers in WORKER_MATRIX[1:]:
            assert (
                skip_runs[workers]["document"]["checksum"]
                == skip_runs[1]["document"]["checksum"]
            )
            assert (
                skip_runs[workers]["document"]["tables"]
                == skip_runs[1]["document"]["tables"]
            )

    def test_skip_subtree_health_identical_and_degraded(self, skip_runs):
        for workers in WORKER_MATRIX[1:]:
            assert skip_runs[workers]["health"] == skip_runs[1]["health"]
        assert all(degraded for _, degraded, _outcomes in skip_runs[1]["health"])

    def test_quarantine_trips_identically(self, quarantine_runs):
        reference = quarantine_runs[1]["runner_state"]
        assert reference["quarantined_version"].keys() == {"tennis"}
        for workers in WORKER_MATRIX[1:]:
            assert quarantine_runs[workers]["runner_state"] == reference

    def test_quarantine_snapshots_identical(self, quarantine_runs):
        for workers in WORKER_MATRIX[1:]:
            assert (
                quarantine_runs[workers]["document"]["checksum"]
                == quarantine_runs[1]["document"]["checksum"]
            )


class TestCrashRecoveryParallel:
    """The PR 2 killed-writer property holds at --workers 4."""

    def test_resume_after_crash_with_workers(self, tmp_path):
        reference_path = tmp_path / "reference.json"
        make_indexer().index_checkpointed(reference_path, limit=3)
        reference = snapshot_document(reference_path)

        path = tmp_path / "meta.json"
        crashed = make_indexer()
        with CrashPoint("snapshot-pre-replace", after=1):
            with pytest.raises(SimulatedCrash):
                crashed.index_checkpointed(path, limit=3, workers=4)

        fresh = make_indexer()
        restored = fresh.restore_snapshot(path)
        assert restored == 1
        records = fresh.index_checkpointed(path, limit=3, resume=True, workers=4)
        assert len(records) == 2
        document = snapshot_document(path)
        assert document["tables"] == reference["tables"]
        assert document["checksum"] == reference["checksum"]
