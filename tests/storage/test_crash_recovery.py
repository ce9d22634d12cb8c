"""Crash-recovery matrix: kill the writer at every storage write point.

The acceptance property of the durability layer: for every named crash
point in the snapshot/journal write path, dying there and reloading
yields either the new snapshot or the previous good generation — never
a parse error or a partial catalogue.
"""

import pytest

from repro.storage import (
    Catalog,
    CrashPoint,
    IndexingJournal,
    SimulatedCrash,
    load_catalog,
    save_catalog,
)
from repro.storage.crashpoints import (
    JOURNAL_POINTS,
    SNAPSHOT_POINTS,
    is_armed,
    trip,
)


def catalog_with(marker: int) -> Catalog:
    catalog = Catalog()
    table = catalog.create_table("t", {"marker": "int", "label": "str", "flag": "bool"})
    for i in range(3):
        table.append({"marker": marker, "label": f"row{i}", "flag": i % 2 == 0})
    return catalog


def marker_of(catalog: Catalog) -> int:
    return catalog.table("t").row(0)["marker"]


class TestSnapshotCrashMatrix:
    @pytest.mark.parametrize("point", SNAPSHOT_POINTS)
    def test_crash_yields_old_or_new_snapshot(self, point, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(catalog_with(1), path)
        with CrashPoint(point):
            with pytest.raises(SimulatedCrash):
                save_catalog(catalog_with(2), path)
        loaded = load_catalog(path)  # must not raise — the matrix property
        assert marker_of(loaded) in (1, 2)
        # Points before the replace keep the old generation; the only
        # point after it sees the new one.
        expected = 2 if point == "snapshot-post-replace" else 1
        assert marker_of(loaded) == expected

    @pytest.mark.parametrize("point", SNAPSHOT_POINTS)
    def test_crash_on_first_ever_save(self, point, tmp_path):
        """No previous generation: either the new snapshot or nothing."""
        path = tmp_path / "catalog.json"
        with CrashPoint(point):
            with pytest.raises(SimulatedCrash):
                save_catalog(catalog_with(1), path)
        if point == "snapshot-post-replace":
            assert marker_of(load_catalog(path)) == 1
        else:
            with pytest.raises(FileNotFoundError):
                load_catalog(path)

    @pytest.mark.parametrize("point", SNAPSHOT_POINTS)
    def test_save_after_crash_recovers(self, point, tmp_path):
        """The writer itself needs no fsck: the next save heals the state."""
        path = tmp_path / "catalog.json"
        save_catalog(catalog_with(1), path)
        with CrashPoint(point):
            with pytest.raises(SimulatedCrash):
                save_catalog(catalog_with(2), path)
        save_catalog(catalog_with(3), path)
        assert marker_of(load_catalog(path)) == 3

    def test_double_crash_still_keeps_a_generation(self, tmp_path):
        """Two consecutive crashed saves never lose the last good data."""
        path = tmp_path / "catalog.json"
        save_catalog(catalog_with(1), path)
        for attempt in (2, 3):
            with CrashPoint("snapshot-pre-replace"):
                with pytest.raises(SimulatedCrash):
                    save_catalog(catalog_with(attempt), path)
        assert marker_of(load_catalog(path)) == 1


class TestJournalCrashMatrix:
    @pytest.mark.parametrize("point", JOURNAL_POINTS)
    def test_crash_keeps_replayable_prefix(self, point, tmp_path):
        journal = IndexingJournal(tmp_path / "journal.jsonl")
        journal.begin("v1")
        journal.commit("v1")
        with CrashPoint(point):
            with pytest.raises(SimulatedCrash):
                journal.begin("v2")
        journal.recover()
        records = journal.replay()  # must not raise
        assert records[:2] == [
            {"op": "begin", "video": "v1"},
            {"op": "commit", "degraded": False, "video": "v1"},
        ]
        assert journal.committed() == {"v1": False}

    def test_mid_append_leaves_torn_tail(self, tmp_path):
        journal = IndexingJournal(tmp_path / "journal.jsonl")
        journal.begin("v1")
        with CrashPoint("journal-mid-append"):
            with pytest.raises(SimulatedCrash):
                journal.commit("v1")
        report = journal.verify()
        assert report.torn_tail
        assert report.ok  # torn tail is recoverable, not corruption
        dropped = journal.recover()
        assert dropped > 0
        journal.commit("v1")
        assert journal.committed() == {"v1": False}


class TestCrashPointHarness:
    def test_trips_are_scoped_to_the_context(self):
        with CrashPoint("snapshot-pre-replace"):
            assert is_armed("snapshot-pre-replace")
        assert not is_armed("snapshot-pre-replace")
        trip("snapshot-pre-replace")  # disarmed: no-op

    def test_times_limits_trips(self):
        with CrashPoint("snapshot-pre-replace", times=1):
            with pytest.raises(SimulatedCrash):
                trip("snapshot-pre-replace")
            trip("snapshot-pre-replace")  # quiet after the single trip

    def test_after_skips_early_trips(self):
        with CrashPoint("snapshot-pre-replace", after=2):
            trip("snapshot-pre-replace")
            trip("snapshot-pre-replace")
            with pytest.raises(SimulatedCrash):
                trip("snapshot-pre-replace")

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            CrashPoint("no-such-point")

    def test_simulated_crash_is_not_an_exception(self):
        """`except Exception` recovery code must not survive a crash."""
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)
