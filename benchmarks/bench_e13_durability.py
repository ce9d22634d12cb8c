"""E13 — durability: crash-recovery matrix and resume savings.

Quantifies what the durability layer buys:

- **Recovery correctness**: killing the writer at every named crash
  point in the snapshot/journal write path and reloading always yields
  a parseable catalogue — either the new snapshot or the previous good
  generation — and recovery is cheap (one extra file read at worst).
- **Resume savings**: after a mid-batch crash, ``--resume`` re-indexes
  only the uncommitted remainder instead of the whole batch, and the
  resumed snapshot is identical (same checksum) to an uninterrupted
  cold run.
- **Batch kill matrix**: a checkpointed batch killed at every trip of
  every snapshot, journal and delta-log point resumes to the
  uninterrupted run's bytes, every video committed, ``fsck`` clean.
- **O(video) commits**: a batch video's durable step writes as many
  bytes into a 12-video catalog as into a 2-video one.
"""

import json
import statistics
import time
from functools import partial

import pytest

from benchmarks.conftest import print_table
from repro.dataset import build_australian_open
from repro.faults import (
    JOURNAL_POINTS,
    SNAPSHOT_POINTS,
    CrashPoint,
    SimulatedCrash,
)
from repro.grammar.tennis import build_tennis_fde
from repro.library.indexing import LibraryIndexer, default_journal_path
from repro.library.persistence import (
    catalog_to_stream_state,
    model_to_catalog,
    stream_state_to_catalog,
)
from repro.storage.catalog import Catalog
from repro.storage.crashpoints import DELTA_POINTS
from repro.storage.fsck import fsck
from repro.storage.journal import IndexingJournal
from repro.storage.persist import DeltaLog, load_catalog, save_catalog, tables_document

N_VIDEOS = 3


def make_indexer() -> LibraryIndexer:
    dataset = build_australian_open(seed=7, video_shots=4)
    return LibraryIndexer(dataset, fde=build_tennis_fde())


@pytest.fixture(scope="module")
def generations():
    """Two realistic meta-index generations (after video 1, after video 2)."""
    indexer = make_indexer()
    plans = indexer.dataset.video_plans
    indexer.index_plan(plans[0])
    gen1 = model_to_catalog(indexer.model)
    indexer.index_plan(plans[1])
    gen2 = model_to_catalog(indexer.model)
    return gen1, gen2


def test_e13_crash_recovery_matrix(benchmark, generations, tmp_path_factory):
    """Kill the snapshot writer at every crash point; recovery never fails."""
    gen1, gen2 = generations
    new_rows = len(gen2.table("videos"))

    def evaluate():
        results = []
        for point in SNAPSHOT_POINTS:
            path = tmp_path_factory.mktemp(point) / "meta.json"
            save_catalog(gen1, path)
            with CrashPoint(point):
                try:
                    save_catalog(gen2, path)
                    crashed = False
                except SimulatedCrash:
                    crashed = True
            start = time.perf_counter()
            loaded = load_catalog(path)  # the matrix property: never raises
            recovery = time.perf_counter() - start
            survivor = "new" if len(loaded.table("videos")) == new_rows else "old"
            results.append((point, crashed, survivor, recovery))
        return results

    results = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    rows = [
        [point, "yes" if crashed else "no", survivor, f"{recovery * 1e3:.2f} ms"]
        for point, crashed, survivor, recovery in results
    ]
    print_table(
        "E13: snapshot crash matrix (recovery after a kill at each write point)",
        ["crash point", "crashed", "survivor", "recovery time"],
        rows,
    )
    assert all(crashed for _, crashed, _, _ in results)
    by_point = {point: survivor for point, _, survivor, _ in results}
    # Only a crash after the atomic replace exposes the new generation.
    assert by_point.pop("snapshot-post-replace") == "new"
    assert set(by_point.values()) == {"old"}


def test_e13_journal_crash_points_keep_replayable_prefix(tmp_path):
    rows = []
    for point in JOURNAL_POINTS:
        journal = IndexingJournal(tmp_path / f"{point}.jsonl")
        journal.begin("v1")
        journal.commit("v1")
        with CrashPoint(point):
            try:
                journal.begin("v2")
            except SimulatedCrash:
                pass
        dropped = journal.recover()
        records = journal.replay()  # never raises after recover()
        rows.append([point, len(records), dropped, sorted(journal.committed())])
        assert journal.committed() == {"v1": False}
    print_table(
        "E13: journal crash matrix",
        ["crash point", "records kept", "bytes dropped", "committed"],
        rows,
    )


def test_e13_chunk_journal_crash_points(tmp_path, generations):
    """Chunk-append records obey the same torn-write contract: a crash
    anywhere in a ``chunk_commit`` append keeps the committed prefix
    replayable and reports the in-flight chunk as a recoverable orphan.

    The chunk's *data* rides the delta log beside the snapshot, under the
    same contract: a crash anywhere in a delta append keeps every earlier
    record, and a crash anywhere in the compaction that folds the log
    into a new base (every snapshot crash point, then "base durable, log
    not yet removed") still reconstructs every committed record.
    """
    rows = []
    for point in JOURNAL_POINTS:
        journal = IndexingJournal(tmp_path / f"chunk-{point}.jsonl")
        journal.chunk_begin("s", 1, 0, 24)
        journal.chunk_commit("s", 1, watermark=24, frames=24, shots=1, generation=1)
        journal.chunk_begin("s", 2, 24, 48)
        with CrashPoint(point):
            try:
                journal.chunk_commit(
                    "s", 2, watermark=48, frames=48, shots=2, generation=2
                )
            except SimulatedCrash:
                pass
        dropped = journal.recover()
        report = journal.verify()
        committed = [int(r["seq"]) for r in report.chunk_commits.get("s", [])]
        orphans = report.orphan_chunks.get("s", [])
        rows.append([point, len(report.records), dropped, committed, orphans])
        assert committed[:1] == [1]  # the committed prefix always survives
        assert 1 not in orphans
        # The in-flight chunk either landed (crash after the append) or
        # is reported as an orphan whose frames resume replays.
        assert committed == [1, 2] or orphans == [2]
    print_table(
        "E13: chunk-append journal crash matrix",
        ["crash point", "records kept", "bytes dropped", "committed seqs", "orphans"],
        rows,
    )

    def chunk_delta(watermark: int) -> dict:
        small = Catalog()
        stream_state_to_catalog(
            [dict(stream="s", seq=watermark // 24, watermark=watermark, scan_base=0,
                  frames=watermark, shots=1)],
            small,
        )
        return {"tables": tables_document(small)}

    def folded_watermark(path) -> int:
        return int(catalog_to_stream_state(load_catalog(path))["s"]["watermark"])

    gen1, _gen2 = generations
    rows = []
    append_points = ("delta-pre-append", "delta-mid-append", "delta-post-append")
    for point in append_points + SNAPSHOT_POINTS + ("compaction-pre-unlink",):
        path = tmp_path / f"delta-{point}.json"
        save_catalog(gen1, path)
        log = DeltaLog(path)
        assert log.append(chunk_delta(24))
        if point in append_points:
            committed = 24  # the append of 48 is the one that dies
            with CrashPoint(point):
                try:
                    log.append(chunk_delta(48))
                except SimulatedCrash:
                    pass
        else:
            committed = 48  # both records committed; the compaction dies
            assert log.append(chunk_delta(48))
            # "compaction-pre-unlink": the save completes, the log stays.
            armed = (point,) if point in SNAPSHOT_POINTS else ()
            with CrashPoint(*armed):
                try:
                    save_catalog(load_catalog(path), path)
                except SimulatedCrash:
                    pass
        recovered = folded_watermark(path)
        rows.append([point, committed, recovered, log.path.stat().st_size])
        assert recovered >= committed  # no committed record is ever lost
        assert recovered == (24 if point in append_points[:2] else 48)
    print_table(
        "E13: delta-log crash matrix (append, then compaction over a live log)",
        ["crash point", "committed watermark", "recovered watermark", "log bytes left"],
        rows,
    )


def test_e13_resume_savings(benchmark, tmp_path_factory):
    """Resume re-indexes only the uncommitted tail of a crashed batch."""
    tmp = tmp_path_factory.mktemp("e13_resume")

    def run_cold():
        path = tmp / "cold.json"
        indexer = make_indexer()
        start = time.perf_counter()
        records = indexer.index_checkpointed(path, limit=N_VIDEOS)
        return path, len(records), time.perf_counter() - start

    cold_path, cold_indexed, cold_time = benchmark.pedantic(
        run_cold, rounds=1, iterations=1
    )

    # Crash during the last video's durable step — its delta-log append
    # (the first video's compaction opened the log): N-1 commits survive.
    crash_path = tmp / "crash.json"
    crashed = make_indexer()
    start = time.perf_counter()
    with CrashPoint("delta-pre-append", after=N_VIDEOS - 2):
        try:
            crashed.index_checkpointed(crash_path, limit=N_VIDEOS)
        except SimulatedCrash:
            pass
    crash_time = time.perf_counter() - start

    fresh = make_indexer()
    start = time.perf_counter()
    restored = fresh.restore_snapshot(crash_path)
    records = fresh.index_checkpointed(crash_path, limit=N_VIDEOS, resume=True)
    resume_time = time.perf_counter() - start

    print_table(
        f"E13: resume savings ({N_VIDEOS} videos, crash during the last commit)",
        ["phase", "videos indexed", "wall time"],
        [
            ["cold run", cold_indexed, f"{cold_time:.2f} s"],
            ["crashed run", f"{restored} committed", f"{crash_time:.2f} s"],
            ["resume", len(records), f"{resume_time:.2f} s"],
        ],
    )
    assert cold_indexed == N_VIDEOS
    assert restored == N_VIDEOS - 1
    assert len(records) == 1  # only the interrupted video is re-indexed
    cold_doc = json.loads(cold_path.read_text())
    resumed_doc = json.loads(crash_path.read_text())
    assert resumed_doc["tables"] == cold_doc["tables"]
    assert resumed_doc["checksum"] == cold_doc["checksum"]


def test_e13_batch_kill_matrix(benchmark, tmp_path_factory):
    """Kill a checkpointed batch at every write point — snapshot, journal,
    delta append, compaction — at every trip of it until the run
    completes, at 1 and 2 workers; restore + resume always ends with the
    uninterrupted run's snapshot bytes, every video committed, none
    interrupted and a clean ``fsck``."""
    tmp = tmp_path_factory.mktemp("e13_batch_kill")
    reference = tmp / "reference.json"
    make_indexer().index_checkpointed(reference, limit=N_VIDEOS)
    expected = reference.read_bytes()
    names = {plan.name for plan in make_indexer().dataset.video_plans[:N_VIDEOS]}

    def kill_and_resume(point: str, after: int, workers: int) -> bool | None:
        """``None`` when the run completed (*point* trips fewer times)."""
        path = tmp / f"{point}-{after}-{workers}" / "meta.json"
        path.parent.mkdir()
        try:
            with CrashPoint(point, after=after):
                make_indexer().index_checkpointed(path, limit=N_VIDEOS, workers=workers)
            return None
        except SimulatedCrash:
            pass
        fresh = make_indexer()
        try:
            fresh.restore_snapshot(path)
        except FileNotFoundError:
            pass  # died before the first snapshot: resume starts over
        fresh.index_checkpointed(path, limit=N_VIDEOS, resume=True, workers=workers)
        journal = IndexingJournal(default_journal_path(path)).verify()
        return (
            path.read_bytes() == expected
            and set(journal.committed) == names
            and not journal.interrupted
            and not fsck(path).problems
        )

    def evaluate():
        results = []
        for workers in (1, 2):
            for point in SNAPSHOT_POINTS + JOURNAL_POINTS + DELTA_POINTS:
                after = 0
                while (good := kill_and_resume(point, after, workers)) is not None:
                    results.append((workers, point, after, good))
                    after += 1
        return results

    results = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    counts: dict[tuple, list[bool]] = {}
    for workers, point, _after, good in results:
        counts.setdefault((workers, point), []).append(good)
    print_table(
        f"E13: batch kill matrix ({N_VIDEOS} videos; kill at each trip, restore, resume)",
        ["workers", "crash point", "kills", "byte-identical + committed + fsck clean"],
        [
            [workers, point, len(goods), f"{sum(goods)}/{len(goods)}"]
            for (workers, point), goods in counts.items()
        ],
    )
    failures = sum(1 for *_, good in results if not good)
    benchmark.extra_info["kill_scenarios"] = len(results)
    benchmark.extra_info["kill_failures"] = failures
    # Every point trips at least once in a batch, at both worker counts.
    assert len(counts) == 2 * len(SNAPSHOT_POINTS + JOURNAL_POINTS + DELTA_POINTS)
    assert failures == 0


def test_e13_batch_commit_scaling(benchmark, tmp_path_factory):
    """A batch video's durable step is O(video): appending the same five
    videos to a restored 12-video catalog writes as many bytes per commit
    as appending them to a restored 2-video one.

    Per video, the bytes ``LibraryIndexer.persist`` writes (its delta
    record, or the whole snapshot when it compacts) and its wall time;
    the first commit after a restore compacts by design and is left out
    of the medians.  With a whole snapshot per video the ratio is about
    the catalog-size ratio.
    """
    sizes, appended = (2, 12), 5
    tmp = tmp_path_factory.mktemp("e13_scaling")
    builder = make_indexer()
    plans = builder.dataset.video_plans[: max(sizes) + appended]
    catalog = tmp / "catalog.json"
    snapshots = {}
    for size in sizes:
        builder.index_checkpointed(catalog, limit=size, resume=True)
        snapshots[size] = catalog.read_bytes()

    def commits(size: int) -> list[tuple[int, float]]:
        """(bytes written, seconds) of each appended video's durable step."""
        path = tmp / f"meta-{size}.json"
        path.write_bytes(snapshots[size])
        indexer = make_indexer()
        indexer.restore_snapshot(path)
        persist, samples = indexer.persist, []

        def measured(*args, **kwargs):
            log = indexer.delta_logs.get(str(path))
            logged = log.log_bytes if log is not None else 0
            start = time.perf_counter()
            persist(*args, **kwargs)
            seconds = time.perf_counter() - start
            now = indexer.delta_logs[str(path)]
            samples.append((now.log_bytes - logged if now is log else now.base_bytes, seconds))

        indexer.persist = measured
        # The batch body of ``index_checkpointed``, the same five videos
        # appended to either catalog (the 2-video one skips plans 2-11).
        indexer.index_all(
            journal=IndexingJournal(tmp / f"meta-{size}.journal"),
            checkpoint=partial(indexer.persist, path),
            skip={plan.name for plan in plans[size : max(sizes)]},
            limit=len(plans),
            resume=True,
        )
        assert len(samples) == appended
        return samples[1:]

    def evaluate():
        return {size: commits(size) for size in sizes}

    samples = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    medians = {
        size: (
            statistics.median(written for written, _ in samples[size]),
            statistics.median(seconds for _, seconds in samples[size]),
        )
        for size in sizes
    }
    ratio = medians[12][0] / medians[2][0]
    print_table(
        f"E13: per-video commit cost vs catalog size ({appended} videos appended, "
        "first commit after the restore left out)",
        ["catalog videos", "snapshot bytes", "bytes per commit", "median bytes", "median commit"],
        [
            [size, len(snapshots[size]), " ".join(str(b) for b, _ in samples[size]),
             f"{medians[size][0]:.0f}", f"{medians[size][1] * 1e3:.2f} ms"]
            for size in sizes
        ]
        + [["ratio 12 / 2", f"{len(snapshots[12]) / len(snapshots[2]):.1f}x", "",
            f"{ratio:.2f}x", f"{medians[12][1] / medians[2][1]:.2f}x"]],
    )
    benchmark.extra_info["commit_bytes_ratio"] = ratio
    benchmark.extra_info["model_size_ratio"] = len(snapshots[12]) / len(snapshots[2])
    assert ratio <= 1.5
