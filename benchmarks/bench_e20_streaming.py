"""E20 — streaming ingest: chunk-append identity, kill matrix, freshness.

The three claims the streaming layer gates in CI:

- **Batch identity**: a clip streamed in bounded chunks produces a final
  snapshot byte-identical to batch ``index_checkpointed`` over the same
  frames — chunk-append loses nothing and invents nothing.
- **Resume exactly-once**: killing the writer at every crash point of
  the chunk commit protocol (and the snapshot write path underneath it),
  at several chunk edges, then restoring + resuming, always converges to
  the same byte-identical snapshot — zero lost and zero duplicated
  shots, per crash point.
- **Freshness under readers**: with concurrent readers querying the
  service mid-ingest, every stream's p95 frame-arrival -> queryable
  latency stays within the declared SLO, nothing sheds on a paced feed,
  and no reader ever errors.
- **O(chunk) commits**: the durable step of a chunk (journal pair +
  delta-log append) costs the same streaming into a 12-video catalog as
  into a 2-video one — the size-independence the freshness SLO needs.
"""

import statistics
import time

import pytest

from benchmarks.conftest import print_table
from repro.dataset import build_australian_open
from repro.grammar.tennis import build_tennis_fde
from repro.library.indexing import LibraryIndexer
from repro.storage.crashpoints import (
    SNAPSHOT_POINTS,
    STREAM_POINTS,
    CrashPoint,
    SimulatedCrash,
)
from repro.storage.fsck import fsck
from repro.storage.journal import IndexingJournal

CHUNK_FRAMES = 24
N_VIDEOS = 2


def make_indexer() -> LibraryIndexer:
    dataset = build_australian_open(seed=7, video_shots=4)
    return LibraryIndexer(dataset, fde=build_tennis_fde())


@pytest.fixture(scope="module")
def batch_control(tmp_path_factory):
    """The oracle: the same videos batch-indexed, snapshot bytes kept."""
    path = tmp_path_factory.mktemp("e20_control") / "batch.json"
    indexer = make_indexer()
    indexer.index_checkpointed(path, limit=N_VIDEOS)
    return path.read_bytes()


def test_e20_streamed_batch_identity(benchmark, batch_control, tmp_path):
    """Chunk-append ingest ends byte-identical to the batch snapshot."""
    path = tmp_path / "streamed.json"

    def run_streamed():
        indexer = make_indexer()
        start = time.perf_counter()
        records = indexer.index_checkpointed(
            path, limit=N_VIDEOS, chunk_frames=CHUNK_FRAMES
        )
        return len(records), time.perf_counter() - start, indexer.generation

    indexed, seconds, generation = benchmark.pedantic(
        run_streamed, rounds=1, iterations=1
    )
    streamed = path.read_bytes()
    identical = streamed == batch_control
    print_table(
        "E20: streamed vs batch snapshot identity",
        ["videos", "chunk frames", "generations", "wall time", "bytes identical"],
        [[indexed, CHUNK_FRAMES, generation, f"{seconds:.2f} s", identical]],
    )
    benchmark.extra_info["identity_mismatch"] = int(not identical)
    assert indexed == N_VIDEOS
    assert identical


def test_e20_kill_matrix(benchmark, batch_control, tmp_path_factory):
    """Kill at every chunk-commit and snapshot crash point; resume always
    converges to the byte-identical batch snapshot (exactly-once).

    ``STREAM_POINTS`` includes the delta append's pre / mid / post edges
    and compaction's "base durable, log not yet removed"; the
    ``SNAPSHOT_POINTS`` rows die inside the *second* and third whole
    snapshot of the run — compactions, with a delta log of committed
    chunks live beside the base being replaced.
    """
    scenarios = [(point, after) for point in STREAM_POINTS for after in (0, 3)]
    scenarios += [(point, after) for point in SNAPSHOT_POINTS for after in (1, 2)]

    def evaluate():
        results = []
        for point, after in scenarios:
            tmp = tmp_path_factory.mktemp(f"{point}-{after}")
            path = tmp / "meta.json"
            journal = IndexingJournal(tmp / "meta.journal")
            crashed = False
            indexer = make_indexer()
            with CrashPoint(point, after=after):
                try:
                    indexer.index_checkpointed(
                        path, journal=journal, limit=N_VIDEOS,
                        chunk_frames=CHUNK_FRAMES,
                    )
                except SimulatedCrash:
                    crashed = True
            log_live = (tmp / "meta.json.delta").exists()
            # Recovery is a fresh process: restore the snapshot (base, or
            # .prev mid-rotate, ⊕ delta log), then resume — committed
            # chunks replay as duplicates and dedupe.
            start = time.perf_counter()
            fresh = make_indexer()
            try:
                fresh.restore_snapshot(path)
            except FileNotFoundError:
                pass  # died before the first snapshot: resume starts over
            fresh.index_checkpointed(
                path,
                journal=IndexingJournal(tmp / "meta.journal"),
                limit=N_VIDEOS,
                chunk_frames=CHUNK_FRAMES,
                resume=True,
            )
            recovery = time.perf_counter() - start
            identical = path.read_bytes() == batch_control
            clean = not fsck(path, tmp / "meta.journal").problems
            results.append((point, after, crashed, log_live, identical and clean, recovery))
        return results

    results = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print_table(
        "E20: chunk-append kill matrix (resume after a kill at each point)",
        ["crash point", "after", "crashed", "delta log live", "byte-identical + fsck clean",
         "resume time"],
        [
            [point, after, "yes" if crashed else "no", "yes" if log_live else "no",
             "yes" if good else "NO", f"{recovery:.2f} s"]
            for point, after, crashed, log_live, good, recovery in results
        ],
    )
    failures = sum(1 for *_, good, _ in results if not good)
    benchmark.extra_info["kill_scenarios"] = len(results)
    benchmark.extra_info["kill_failures"] = failures
    assert all(crashed for _, _, crashed, *_ in results)
    # Every snapshot-path kill landed in a compaction over a live log.
    assert all(live for point, _, _, live, *_ in results if point in SNAPSHOT_POINTS)
    assert failures == 0


def test_e20_commit_scaling(benchmark, tmp_path_factory):
    """The durable step of a chunk commit is O(chunk): its median cost
    streaming into a 12-video catalog over the same into a 2-video one.

    Timed per chunk: the journal ``chunk_begin`` / ``chunk_commit`` pair
    plus ``StreamSession._persist`` (delta append; the rare compactions
    are in the samples, the median leaves them out) — detectors
    excluded.  With a whole-model snapshot per chunk this ratio is about
    the model-size ratio.
    """
    from repro.streaming import StreamSession, iter_chunks

    sizes = (2, 12)
    tmp = tmp_path_factory.mktemp("e20_scaling")
    catalog = tmp / "catalog.json"
    builder = make_indexer()
    live = builder.dataset.video_plans[max(sizes)]
    clip, _truth = live.materialise()
    snapshots = {}
    for size in sizes:
        builder.index_checkpointed(catalog, limit=size, resume=True)
        snapshots[size] = catalog.read_bytes()

    def commit_seconds(size: int, round_: int) -> list[float]:
        path = tmp / f"meta-{size}-{round_}.json"
        path.write_bytes(snapshots[size])
        indexer = make_indexer()
        indexer.restore_snapshot(path)
        journal = IndexingJournal(tmp / f"meta-{size}-{round_}.journal")
        session = StreamSession(indexer, live, path=path, journal=journal)
        spent: list[float] = []

        def timed(fn):
            def call(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent[-1] += time.perf_counter() - start
            return call

        session._persist = timed(session._persist)
        journal.chunk_begin = timed(journal.chunk_begin)
        journal.chunk_commit = timed(journal.chunk_commit)
        for chunk in iter_chunks(clip, CHUNK_FRAMES // 2, stream=live.name):
            spent.append(0.0)
            session.push_chunk(chunk)
        return spent

    def evaluate():
        samples = {size: [] for size in sizes}
        for round_ in range(4):  # alternate, so host drift hits both sides
            for size in sizes if round_ % 2 == 0 else sizes[::-1]:
                samples[size] += commit_seconds(size, round_)
        return {size: statistics.median(values) for size, values in samples.items()}

    medians = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    ratio = medians[12] / medians[2]
    print_table(
        "E20: per-chunk commit cost vs catalog size (journal pair + delta append)",
        ["catalog videos", "snapshot bytes", "median commit"],
        [[size, len(snapshots[size]), f"{medians[size] * 1e3:.2f} ms"] for size in sizes]
        + [["ratio 12 / 2", f"{len(snapshots[12]) / len(snapshots[2]):.1f}x", f"{ratio:.2f}x"]],
    )
    benchmark.extra_info["commit_cost_ratio"] = ratio
    benchmark.extra_info["model_size_ratio"] = len(snapshots[12]) / len(snapshots[2])
    assert ratio <= 1.5


def test_e20_freshness_soak(benchmark, batch_control, tmp_path):
    """Concurrent readers during paced multi-stream ingest: p95 freshness
    within the SLO, zero sheds, zero reader errors, identity preserved."""
    import itertools

    from repro.library import DigitalLibraryEngine, LibrarySearchService, parse_query
    from repro.sim import check_stream_row, run_clients
    from repro.streaming import StreamConfig, feed_streams, iter_chunks

    path = tmp_path / "soak.json"
    slo_seconds = 2.0
    dataset = build_australian_open(seed=7, video_shots=4)
    engine = DigitalLibraryEngine(dataset, fde=build_tennis_fde())
    service = LibrarySearchService(engine)
    config = StreamConfig(freshness_slo=slo_seconds)
    ingestor = service.ingestor(
        path=path, journal=IndexingJournal(tmp_path / "soak.journal"), config=config
    )
    queries = itertools.cycle(
        [
            parse_query("SCENES WHERE event = net_play"),
            parse_query("SCENES WHERE player.handedness = left"),
        ]
    )

    def ingest(_client: int, n: int):
        # Streams complete one at a time: interleaved chunk commits would
        # interleave shot ids across videos and break byte identity with
        # the sequential batch control.  Readers stay concurrent — the
        # claim under test is ingest-while-queried, not cross-stream
        # commit interleaving (the CLI soak covers that).
        if n == N_VIDEOS:
            return None
        plan = dataset.video_plans[n]
        ingestor.open_stream(plan)
        clip, _truth = plan.materialise()
        chunks = iter_chunks(clip, CHUNK_FRAMES, stream=plan.name, clock=time.monotonic)
        assert not feed_streams(ingestor, {plan.name: chunks})
        assert ingestor.close_stream(plan.name)
        return None, ()

    def run_soak():
        reader = (lambda: service.search(next(queries)), 0.001)
        run = run_clients(ingest, 1, 600.0, background=[reader] * 2, join_slack=600.0)
        assert ingestor.drain()
        return run, ingestor.health()

    run, health = benchmark.pedantic(run_soak, rounds=1, iterations=1)

    worst_p95 = max(
        row.freshness["p95"] for row in health.values() if row.freshness["p95"]
    )
    sheds = sum(row.lag_sheds for row in health.values())
    quarantined = sum(1 for row in health.values() if row.state != "done")
    broken = [m for row in health.values() for m in check_stream_row(row, slo_seconds)]
    identical = path.read_bytes() == batch_control
    print_table(
        "E20: freshness soak (paced ingest under concurrent readers)",
        ["streams", "queries served", "worst p95 freshness", "sheds",
         "not done", "bytes identical"],
        [[len(health), sum(run.ticks), f"{worst_p95 * 1e3:.1f} ms", sheds,
          quarantined, identical]],
    )
    benchmark.extra_info["freshness_p95_ms"] = worst_p95 * 1e3
    benchmark.extra_info["freshness_slo_ms"] = slo_seconds * 1e3
    benchmark.extra_info["lag_sheds"] = sheds
    benchmark.extra_info["quarantined"] = quarantined
    benchmark.extra_info["reader_errors"] = len(run.violations)
    benchmark.extra_info["identity_mismatch"] = int(not identical)
    assert not broken, broken
    assert not run.violations, run.violations[:3]
    assert sheds == 0 and quarantined == 0
    assert identical
