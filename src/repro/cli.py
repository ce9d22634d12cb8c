"""Command-line interface for the digital library.

Subcommands::

    repro figure1
        Print the paper's Figure 1 (tennis FDE detector dependencies)
        as Graphviz DOT.

    repro index --seed S --videos N --out META.json [--resume] [--workers N]
        Build the synthetic tournament (seed S), index the first N
        planned videos through the tennis FDE, and save the meta-index.
        The snapshot is written atomically after *every* video and an
        append-only journal (META.json.journal) records begin/commit
        per video; after a crash, ``--resume`` restores the last good
        snapshot and re-indexes only uncommitted videos.  ``--workers``
        stages videos concurrently (snapshot bytes stay identical).

    repro query --seed S --metaindex META.json "SCENES WHERE ..."
        Rebuild the tournament from the same seed, restore the saved
        meta-index, and answer a combined query written in the query
        language of :mod:`repro.library.parser`.

    repro ann-build --seed S --metaindex META.json [--cells C] [--ann-seed R]
        Embed every indexed shot (histogram + moments + shape, schema
        v1), build the IVF ANN index and persist it into the snapshot's
        checksummed ``ann_*`` tables (validated by ``repro fsck``).

    repro search --seed S --metaindex META.json --like VIDEO[:START:STOP]
        Query by example: embed a clip of the named plan (optionally
        degraded with --noise/--brightness/--truncate), retrieve its
        nearest indexed shots from the ANN index, and — with --query —
        fuse them with the text/concept ranking by weighted late
        fusion (--w-text/--w-ann).

    repro demo --seed S
        The motivating query of the paper, end to end (indexes the
        qualifying videos on the fly).

    repro export-mpeg7 --metaindex META.json --out DOC.xml
        Convert a saved meta-index to MPEG-7-style XML.

    repro build-site --seed S --out DIR
        Write the generated tournament web site as HTML files.

    repro stats --metaindex META.json
        Summarise a saved meta-index (shots per category, events per
        label, track coverage, event density).

    repro health --seed S --videos N
        Index N videos under a chosen fault-tolerance policy and print
        the per-detector indexing health report.

    repro faults --seed S --videos N --rate R
        Fault-injection run: index N videos while randomly sabotaging
        detectors at rate R, then report health, degraded videos and
        meta-data completeness (see repro.faults).

    repro fsck --metaindex META.json
        Verify snapshot generations, the ANN tables and the journal,
        and deep-check streaming chunk records against the snapshot
        (:func:`repro.storage.fsck.fsck` states every check); prints
        the report and exits non-zero when anything is fatal.

    repro stream --seed S --videos N --out META.json [--chunk-frames F]
        Crash-safe chunk-append ingest: replay the first N planned
        videos as live streams through the bounded-queue ingestor.
        Every chunk lands as a journal chunk_begin/chunk_commit pair
        around one checksummed delta-log record, so a kill anywhere resumes
        at the last committed chunk (``--resume``) with no lost or
        duplicated shots.  Prints the per-stream health table: chunks,
        shots, watermark, lag sheds and frame-arrival -> queryable
        freshness percentiles against the declared SLO.

    repro stream --soak --seconds S [--fault-mode M]
        Streaming chaos soak (:func:`repro.sim.soak_stream`): readers
        query while the feeds are sabotaged (delayed / torn / duplicated
        chunks) and one stream is killed mid-commit and resumed; exits
        non-zero on any invariant violation.

    repro query-stats --seed S --metaindex META.json "QUERY" ["QUERY"...]
        Serve the given queries (each --repeat times) through the
        cached query-serving layer and print the QueryStats report:
        per-stage timers, cache hit/miss/eviction counters and
        postings-processed accounting.  With --shards N the queries go
        through shard workers instead; adding --chunk-frames F ingests
        the videos via the streaming chunk-append path first, so the
        report includes per-shard freshness percentiles.

    repro serve-bench --seed S --videos N --threads T --requests R
        Query-serving driver: index N videos, then measure cold
        (uncached) vs warm (cached) latency over a fixed query mix and
        multi-threaded reader throughput against the shared cache.
        With --budget-ms / --max-concurrent the service runs with
        deadlines, admission control and the degradation ladder.

    repro serve-bench --soak --seconds S --fault-ms MS
        Chaos soak (:func:`repro.sim.soak_serving`): mixed readers, a
        concurrent writer and injected per-stage latency for S seconds;
        exits non-zero on any invariant violation.

    repro serve-sharded --shards N --replicas R --videos V --requests Q
        Scatter-gather driver: partition V videos across N replica
        groups of R worker processes each, fan queries out with
        per-shard deadline slices to the healthiest replica of each
        group (failing over to siblings), merge the partial rankings
        and print the per-shard health table (generation vector,
        quarantine state, hedge/failover counts, per-replica rows).

    repro serve-sharded --soak --seconds S --fault-shard K --fault-mode M
        Sharded chaos soak (:func:`repro.sim.soak_sharded`): concurrent
        clients while shard K (or, with --fault-replica, one replica of
        it) misbehaves — delay / error / kill / stale_generation; exits
        non-zero on any invariant violation.

All commands are deterministic in their seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Content-based video indexing for digital library search (ICDE 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figure1", help="print Figure 1 as Graphviz DOT")

    index_cmd = sub.add_parser("index", help="index tournament videos into a meta-index file")
    index_cmd.add_argument("--seed", type=int, default=7, help="dataset seed")
    index_cmd.add_argument("--videos", type=int, default=2, help="how many planned videos to index")
    index_cmd.add_argument("--out", required=True, help="output meta-index JSON path")
    index_cmd.add_argument(
        "--resume",
        action="store_true",
        help="restore the last good snapshot and re-index only videos "
        "without a journal commit record",
    )
    index_cmd.add_argument(
        "--journal",
        default=None,
        help="indexing journal path (default: <out>.journal)",
    )
    index_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="videos staged concurrently (staged per-video indexing); "
        "results are byte-identical to --workers 1",
    )

    query_cmd = sub.add_parser("query", help="answer a combined query against a saved meta-index")
    query_cmd.add_argument("--seed", type=int, default=7, help="dataset seed (must match index run)")
    query_cmd.add_argument("--metaindex", required=True, help="meta-index JSON path")
    query_cmd.add_argument("text", help='query, e.g. \'SCENES WHERE event = net_play\'')

    ann_build_cmd = sub.add_parser(
        "ann-build", help="build the query-by-example ANN index into a saved meta-index"
    )
    ann_build_cmd.add_argument(
        "--seed", type=int, default=7, help="dataset seed (must match index run)"
    )
    ann_build_cmd.add_argument("--metaindex", required=True, help="meta-index JSON path")
    ann_build_cmd.add_argument(
        "--out", default=None, help="output snapshot path (default: --metaindex)"
    )
    ann_build_cmd.add_argument("--cells", type=int, default=8, help="IVF cells (k-means centroids)")
    ann_build_cmd.add_argument(
        "--ann-seed", type=int, default=0, help="k-means initialization seed"
    )
    ann_build_cmd.add_argument("--samples", type=int, default=3, help="frames sampled per shot")

    search_cmd = sub.add_parser(
        "search", help="query by example against a saved meta-index (ANN + late fusion)"
    )
    search_cmd.add_argument(
        "--seed", type=int, default=7, help="dataset seed (must match index run)"
    )
    search_cmd.add_argument("--metaindex", required=True, help="meta-index JSON path")
    search_cmd.add_argument(
        "--like",
        required=True,
        help="example clip as VIDEO[:START:STOP] (a planned video name plus "
        "an optional frame range)",
    )
    search_cmd.add_argument(
        "--query",
        default=None,
        help="optional text/concept query to fuse with, e.g. 'SCENES WHERE event = net_play'",
    )
    search_cmd.add_argument("--w-text", type=float, default=0.5, help="late-fusion text weight")
    search_cmd.add_argument("--w-ann", type=float, default=0.5, help="late-fusion ANN weight")
    search_cmd.add_argument("--k", type=int, default=10, help="nearest shots retrieved")
    search_cmd.add_argument(
        "--nprobe", type=int, default=None, help="IVF cells probed (default: all)"
    )
    search_cmd.add_argument(
        "--cells", type=int, default=8, help="IVF cells when building on the fly"
    )
    search_cmd.add_argument(
        "--ann-seed", type=int, default=0, help="k-means seed when building on the fly"
    )
    search_cmd.add_argument("--top", type=int, default=20, help="result scenes printed")
    search_cmd.add_argument(
        "--noise", type=float, default=0.0, help="Gaussian noise sigma applied to the query clip"
    )
    search_cmd.add_argument(
        "--brightness", type=float, default=0.0, help="brightness shift applied to the query clip"
    )
    search_cmd.add_argument(
        "--truncate",
        type=float,
        default=1.0,
        help="fraction of the query clip kept (truncated query robustness)",
    )
    search_cmd.add_argument(
        "--degrade-seed", type=int, default=0, help="rng seed of the query degradations"
    )

    demo_cmd = sub.add_parser("demo", help="run the paper's motivating query end to end")
    demo_cmd.add_argument("--seed", type=int, default=7, help="dataset seed")

    export_cmd = sub.add_parser("export-mpeg7", help="convert a saved meta-index to MPEG-7 XML")
    export_cmd.add_argument("--metaindex", required=True, help="meta-index JSON path")
    export_cmd.add_argument("--out", required=True, help="output XML path")

    site_cmd = sub.add_parser("build-site", help="write the tournament web site as HTML files")
    site_cmd.add_argument("--seed", type=int, default=7, help="dataset seed")
    site_cmd.add_argument("--out", required=True, help="output directory")

    stats_cmd = sub.add_parser("stats", help="summarise a saved meta-index")
    stats_cmd.add_argument("--metaindex", required=True, help="meta-index JSON path")

    fsck_cmd = sub.add_parser(
        "fsck", help="verify meta-index snapshot and journal integrity"
    )
    fsck_cmd.add_argument("--metaindex", required=True, help="meta-index JSON path")
    fsck_cmd.add_argument(
        "--journal",
        default=None,
        help="indexing journal path (default: <metaindex>.journal)",
    )

    stats_query_cmd = sub.add_parser(
        "query-stats", help="serve queries through the cache and report QueryStats"
    )
    stats_query_cmd.add_argument("--seed", type=int, default=7, help="dataset seed (must match index run)")
    stats_query_cmd.add_argument(
        "--metaindex", default=None, help="meta-index JSON path (required without --shards)"
    )
    stats_query_cmd.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve through N shard worker processes instead of one service "
        "(indexes --videos from the dataset; prints per-shard stats)",
    )
    stats_query_cmd.add_argument(
        "--videos", type=int, default=4, help="videos to index when --shards is used"
    )
    stats_query_cmd.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="worker processes per shard when --shards is used",
    )
    stats_query_cmd.add_argument(
        "--chunk-frames",
        type=int,
        default=None,
        help="with --shards: ingest the videos through the streaming "
        "chunk-append path in F-frame chunks (reports per-shard "
        "freshness percentiles)",
    )
    stats_query_cmd.add_argument(
        "--repeat", type=int, default=3, help="times each query is served"
    )
    stats_query_cmd.add_argument(
        "--cache-size", type=int, default=256, help="result-cache capacity (LRU)"
    )
    stats_query_cmd.add_argument(
        "queries", nargs="+", help="queries, e.g. 'SCENES WHERE event = net_play'"
    )

    serve_cmd = sub.add_parser(
        "serve-bench", help="measure warm/cold serving latency and reader throughput"
    )
    serve_cmd.add_argument("--seed", type=int, default=7, help="dataset seed")
    serve_cmd.add_argument("--videos", type=int, default=2, help="videos to index first")
    serve_cmd.add_argument("--threads", type=int, default=4, help="concurrent readers")
    serve_cmd.add_argument(
        "--requests", type=int, default=50, help="requests per reader thread"
    )
    serve_cmd.add_argument(
        "--cache-size", type=int, default=256, help="result-cache capacity (LRU)"
    )
    serve_cmd.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        help="per-query wall-clock budget in ms (enables the resilient path)",
    )
    serve_cmd.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        help="admission capacity (concurrent queries)",
    )
    serve_cmd.add_argument(
        "--queue", type=int, default=16, help="bounded admission wait-queue length"
    )
    serve_cmd.add_argument(
        "--queue-timeout-ms",
        type=float,
        default=50.0,
        help="max ms a request waits in the admission queue",
    )
    serve_cmd.add_argument(
        "--soak",
        action="store_true",
        help="run the chaos soak (readers + writer + faults) instead of the latency passes",
    )
    serve_cmd.add_argument(
        "--seconds", type=float, default=10.0, help="soak duration in seconds"
    )
    serve_cmd.add_argument(
        "--fault-stage",
        default="text_topn",
        help="query stage the soak injects latency into",
    )
    serve_cmd.add_argument(
        "--fault-ms",
        type=float,
        default=0.0,
        help="injected latency per fault delivery in ms",
    )
    serve_cmd.add_argument(
        "--p99-ms",
        type=float,
        default=None,
        help="served-p99 bound the soak asserts (default: 2x --budget-ms)",
    )

    sharded_cmd = sub.add_parser(
        "serve-sharded",
        help="scatter-gather serving over shard worker processes",
    )
    sharded_cmd.add_argument("--seed", type=int, default=7, help="dataset seed")
    sharded_cmd.add_argument("--shards", type=int, default=2, help="shard worker processes")
    sharded_cmd.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="worker processes per shard (replica group size; reads fail "
        "over and hedge across siblings)",
    )
    sharded_cmd.add_argument("--videos", type=int, default=4, help="videos to partition")
    sharded_cmd.add_argument(
        "--requests", type=int, default=30, help="requests per client thread"
    )
    sharded_cmd.add_argument("--threads", type=int, default=2, help="concurrent clients")
    sharded_cmd.add_argument(
        "--budget-ms", type=float, default=1000.0, help="per-request wall budget in ms"
    )
    sharded_cmd.add_argument(
        "--worker-threads", type=int, default=2, help="evaluation threads per worker"
    )
    sharded_cmd.add_argument(
        "--min-coverage", type=int, default=1, help="fewest shards a partial answer needs"
    )
    sharded_cmd.add_argument(
        "--soak",
        action="store_true",
        help="run the sharded chaos soak instead of the latency pass",
    )
    sharded_cmd.add_argument(
        "--seconds", type=float, default=10.0, help="soak duration in seconds"
    )
    sharded_cmd.add_argument(
        "--fault-shard", type=int, default=None, help="shard the soak sabotages"
    )
    sharded_cmd.add_argument(
        "--fault-replica",
        type=int,
        default=None,
        help="replica index the fault is addressed to (default: the whole "
        "group; with --replicas >= 2 a single-replica fault must cost "
        "zero coverage)",
    )
    sharded_cmd.add_argument(
        "--fault-mode",
        choices=("delay", "error", "kill", "stale_generation"),
        default="delay",
        help="what the sabotaged shard does",
    )
    sharded_cmd.add_argument(
        "--fault-ms", type=float, default=200.0, help="delay per fault delivery in ms"
    )
    sharded_cmd.add_argument(
        "--fault-after",
        type=int,
        default=3,
        help="clean query deliveries before the fault starts landing",
    )
    sharded_cmd.add_argument(
        "--p99-ms",
        type=float,
        default=None,
        help="fan-out p99 bound the soak asserts (default: 2x --budget-ms)",
    )

    def add_policy_options(cmd, default_policy: str) -> None:
        cmd.add_argument(
            "--policy",
            choices=("fail_fast", "skip_subtree", "quarantine"),
            default=default_policy,
            help="failure-isolation policy",
        )
        cmd.add_argument("--retries", type=int, default=1, help="max retries per detector")
        cmd.add_argument(
            "--backoff", type=float, default=0.01, help="base retry backoff (seconds)"
        )
        cmd.add_argument(
            "--timeout", type=float, default=None, help="per-attempt budget (seconds)"
        )
        cmd.add_argument(
            "--deadline", type=float, default=None, help="per-video budget (seconds)"
        )
        cmd.add_argument(
            "--quarantine-after",
            type=int,
            default=3,
            help="consecutive failing videos before a detector is quarantined",
        )

    health_cmd = sub.add_parser(
        "health", help="index videos and report per-detector indexing health"
    )
    health_cmd.add_argument("--seed", type=int, default=7, help="dataset seed")
    health_cmd.add_argument("--videos", type=int, default=2, help="how many videos to index")
    health_cmd.add_argument(
        "--shards",
        type=int,
        default=None,
        help="report shard-level serving health instead: spawn N shard "
        "workers, serve a probe mix, print the per-shard table",
    )
    health_cmd.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="worker processes per shard when --shards is used",
    )
    health_cmd.add_argument(
        "--chunk-frames",
        type=int,
        default=None,
        help="with --shards: ingest through the streaming chunk-append "
        "path in F-frame chunks before probing (reports per-shard "
        "freshness percentiles)",
    )
    add_policy_options(health_cmd, default_policy="skip_subtree")

    stream_cmd = sub.add_parser(
        "stream",
        help="crash-safe chunk-append streaming ingest (journaled, resumable)",
    )
    stream_cmd.add_argument("--seed", type=int, default=7, help="dataset seed")
    stream_cmd.add_argument(
        "--videos", type=int, default=2, help="planned videos replayed as streams"
    )
    stream_cmd.add_argument(
        "--out", default=None, help="snapshot path (required without --soak)"
    )
    stream_cmd.add_argument(
        "--journal",
        default=None,
        help="indexing journal path (default: <out>.journal)",
    )
    stream_cmd.add_argument(
        "--chunk-frames", type=int, default=24, help="frames per ingest chunk"
    )
    stream_cmd.add_argument(
        "--queue-chunks",
        type=int,
        default=8,
        help="bounded per-stream queue depth (overflow sheds oldest, labeled)",
    )
    stream_cmd.add_argument(
        "--slo-ms",
        type=float,
        default=2000.0,
        help="declared p95 frame-arrival -> queryable freshness SLO in ms",
    )
    stream_cmd.add_argument(
        "--resume",
        action="store_true",
        help="restore the last good snapshot and resume interrupted "
        "streams from their committed watermark",
    )
    stream_cmd.add_argument(
        "--soak",
        action="store_true",
        help="run the streaming chaos soak (readers + chunk faults + "
        "mid-stream kill drill) instead of a plain ingest",
    )
    stream_cmd.add_argument(
        "--seconds", type=float, default=8.0, help="soak duration budget in seconds"
    )
    stream_cmd.add_argument(
        "--readers", type=int, default=2, help="concurrent reader threads in the soak"
    )
    stream_cmd.add_argument(
        "--fault-mode",
        choices=("delay", "torn", "duplicate", "none"),
        default="torn",
        help="chunk-feed sabotage the soak applies",
    )
    stream_cmd.add_argument(
        "--fault-delay-ms",
        type=float,
        default=20.0,
        help="delay per sabotaged chunk in ms (delay mode)",
    )
    stream_cmd.add_argument(
        "--kill-point",
        default="chunk-pre-commit",
        help="crash point of the soak's mid-stream kill drill",
    )

    faults_cmd = sub.add_parser(
        "faults", help="index videos with randomly injected detector failures"
    )
    faults_cmd.add_argument("--seed", type=int, default=7, help="dataset seed")
    faults_cmd.add_argument("--videos", type=int, default=2, help="how many videos to index")
    faults_cmd.add_argument(
        "--rate", type=float, default=0.25, help="fault probability per (detector, video)"
    )
    faults_cmd.add_argument(
        "--fault-seed", type=int, default=0, help="seed of the fault plan sampler"
    )
    faults_cmd.add_argument(
        "--error",
        choices=("transient", "permanent", "timeout"),
        default="transient",
        help="error class the injected faults raise",
    )
    faults_cmd.add_argument(
        "--times",
        type=int,
        default=1,
        help="attempts each fault sabotages (0 = every attempt, forever)",
    )
    add_policy_options(faults_cmd, default_policy="skip_subtree")

    return parser


def _policy_from_args(args):
    from repro.grammar.runtime import RunPolicy

    return RunPolicy(
        max_retries=args.retries,
        backoff_base=args.backoff,
        timeout=args.timeout,
        deadline=args.deadline,
        isolation=args.policy,
        quarantine_after=args.quarantine_after,
    )


def _counts(engine) -> str:
    """``N videos, N shots, N objects, N events`` of *engine*'s meta-index."""
    counts = engine.indexer.model.counts()
    return (
        f"{counts['raw']} videos, {counts['feature']} shots, "
        f"{counts['object']} objects, {counts['event']} events"
    )


def _cmd_figure1(_args) -> int:
    from repro.grammar.dot import figure_one

    print(figure_one())
    return 0


def _cmd_index(args) -> int:
    from repro.dataset import build_australian_open
    from repro.library import DigitalLibraryEngine
    from repro.library.indexing import default_journal_path
    from repro.storage.journal import IndexingJournal

    dataset = build_australian_open(seed=args.seed)
    engine = DigitalLibraryEngine(dataset)
    journal_path = args.journal or default_journal_path(args.out)
    journal = IndexingJournal(journal_path)

    restored = 0
    if args.resume:
        # load_catalog falls back to the .prev generation, so a crash in
        # the rotate window (current missing) still restores correctly.
        try:
            restored = engine.indexer.restore_snapshot(args.out)
        except FileNotFoundError:
            pass  # nothing saved yet: resume degenerates to a fresh run
        else:
            print(f"resume: restored {restored} committed video(s) from {args.out}")
            indexed = engine.indexer.indexed  # a restored video only needs its record
            interrupted = [name for name in journal.verify().interrupted if name not in indexed]
            if interrupted:
                print(f"resume: re-indexing interrupted video(s): {', '.join(interrupted)}")

    plans = dataset.video_plans[: args.videos]
    pending = [p.name for p in plans if p.name not in engine.indexer.indexed]
    if pending:
        print(f"indexing {len(pending)} video(s): {', '.join(pending)}")
    records = engine.indexer.index_checkpointed(
        args.out,
        journal=journal,
        limit=args.videos,
        resume=args.resume,
        workers=args.workers,
    )
    newly = f" ({len(records)} newly indexed)" if restored else ""
    print(f"saved {args.out}: {_counts(engine)}{newly}")
    return 0


def _parsed(texts: list[str]) -> list | None:
    """*texts* as queries, or ``None`` once a malformed one is reported."""
    from repro.library import QuerySyntaxError, parse_query

    try:
        return [parse_query(text) for text in texts]
    except QuerySyntaxError as exc:
        print(f"query: {exc}", file=sys.stderr)
        return None


def _cmd_query(args) -> int:
    from repro.dataset import build_australian_open
    from repro.library import DigitalLibraryEngine
    from repro.library.persistence import load_model

    parsed = _parsed([args.text])
    if parsed is None:
        return 2
    dataset = build_australian_open(seed=args.seed)
    engine = DigitalLibraryEngine(dataset)
    restored = engine.indexer.restore(load_model(args.metaindex))
    print(f"restored {restored} indexed video(s)")
    results = engine.search(parsed[0])
    if not results:
        print("no scenes found")
        return 1
    for scene in results:
        players = ", ".join(scene.players) if scene.players else "-"
        print(
            f"{scene.video_name}  frames [{scene.start},{scene.stop})  "
            f"{scene.event_label or 'whole video'}  score={scene.score:.2f}  {players}"
        )
    return 0


def _parse_like(spec: str) -> tuple[str, int | None, int | None]:
    """Split a ``VIDEO[:START:STOP]`` example-clip spec."""
    parts = spec.rsplit(":", 2)
    if len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit():
        return parts[0], int(parts[1]), int(parts[2])
    return spec, None, None


def _materialise_query_clip(dataset, args) -> list:
    """The (possibly degraded) example frames named by ``--like``."""
    import numpy as np

    from repro.video.noise import add_gaussian_noise

    name, start, stop = _parse_like(args.like)
    plans = {plan.name: plan for plan in dataset.video_plans}
    if name not in plans:
        raise SystemExit(f"no planned video named {name!r} (seed {args.seed})")
    clip, _truth = plans[name].materialise()
    start = 0 if start is None else max(0, start)
    stop = len(clip) if stop is None else min(stop, len(clip))
    frames = [clip[i] for i in range(start, stop)]
    if not frames:
        raise SystemExit(f"--like range [{start},{stop}) selects no frames")
    if args.truncate < 1.0:
        frames = frames[: max(1, int(len(frames) * args.truncate))]
    rng = np.random.default_rng(args.degrade_seed)
    if args.noise > 0.0:
        frames = [add_gaussian_noise(f, args.noise, rng) for f in frames]
    if args.brightness != 0.0:
        frames = [
            np.clip(f.astype(np.float64) + args.brightness, 0, 255).astype(f.dtype)
            for f in frames
        ]
    return frames


def _restore_engine_with_ann(args):
    """An engine restored from ``--metaindex``, ANN adopted or built."""
    from repro.dataset import build_australian_open
    from repro.library import DigitalLibraryEngine
    from repro.library.persistence import load_model_with_ann

    dataset = build_australian_open(seed=args.seed)
    engine = DigitalLibraryEngine(dataset)
    model, ann = load_model_with_ann(args.metaindex)
    restored = engine.indexer.restore(model)
    print(f"restored {restored} indexed video(s)")
    if ann is not None:
        index, meta = ann
        engine.adopt_ann(index, meta)
        print(f"ann: adopted snapshot index ({index.n_vectors} vectors, {index.n_cells} cells)")
    else:
        index = engine.build_ann_index(n_cells=args.cells, seed=args.ann_seed)
        print(f"ann: built on the fly ({index.n_vectors} vectors, {index.n_cells} cells)")
    return dataset, engine


def _cmd_ann_build(args) -> int:
    from repro.dataset import build_australian_open
    from repro.library import DigitalLibraryEngine
    from repro.library.persistence import save_model

    dataset = build_australian_open(seed=args.seed)
    engine = DigitalLibraryEngine(dataset)
    indexer = engine.indexer
    restored = indexer.restore_snapshot(args.metaindex)
    print(f"restored {restored} indexed video(s)")
    index = engine.build_ann_index(
        n_cells=args.cells, seed=args.ann_seed, samples=args.samples
    )
    out = args.out or args.metaindex
    # In-flight streams keep their resume rows: the snapshot this
    # rewrites may be a mid-stream one.
    save_model(indexer.model, out, ann=(index, engine.ann_meta), **indexer.state_tables())
    print(
        f"wrote {out}: {index.n_vectors} shot vectors in {index.n_cells} cells "
        f"(dim {index.dim})"
    )
    return 0


def _cmd_search(args) -> int:
    from repro.ir.ann import AnnSnapshotError

    parsed = _parsed([args.query] if args.query else [])
    if parsed is None:
        return 2
    try:
        dataset, engine = _restore_engine_with_ann(args)
    except AnnSnapshotError as exc:
        print(f"search: corrupt ANN snapshot — {exc}")
        return 1
    frames = _materialise_query_clip(dataset, args)
    results = engine.search_like(
        frames,
        query=parsed[0] if parsed else None,
        weights=(args.w_text, args.w_ann),
        k=args.k,
        nprobe=args.nprobe,
        top_n=args.top,
    )
    if not results:
        print("no scenes found")
        return 1
    for scene in results:
        players = ", ".join(scene.players) if scene.players else "-"
        print(
            f"{scene.video_name}  frames [{scene.start},{scene.stop})  "
            f"{scene.event_label or 'ann match'}  score={scene.score:.3f}  {players}"
        )
    return 0


def _cmd_demo(args) -> int:
    from repro.dataset import build_australian_open
    from repro.library import DigitalLibraryEngine, LibraryQuery

    dataset = build_australian_open(seed=args.seed)
    engine = DigitalLibraryEngine(dataset)
    qualifying = engine.concept_players(
        {"handedness": "left", "gender": "female", "past_winner": True}
    )
    names = [p.get("name") for p in qualifying]
    print(f"left-handed female past champions: {names}")
    plans = [
        plan
        for plan in dataset.video_plans
        if any(name in plan.match_title for name in names)
    ][:2]
    for plan in plans:
        print(f"indexing {plan.name} ...")
        engine.indexer.index_plan(plan)
    query = LibraryQuery(
        player={"handedness": "left", "gender": "female", "past_winner": True},
        event="net_play",
    )
    results = engine.search(query)
    print(f"\n{len(results)} scene(s):")
    for scene in results:
        print(
            f"  {scene.video_name}  frames [{scene.start},{scene.stop})  "
            f"{', '.join(scene.players)}"
        )
    return 0


def _cmd_export_mpeg7(args) -> int:
    from pathlib import Path

    from repro.core.mpeg7 import export_mpeg7
    from repro.library.persistence import load_model

    model = load_model(args.metaindex)
    Path(args.out).write_text(export_mpeg7(model))
    print(f"wrote {args.out} ({model.counts()})")
    return 0


def _cmd_build_site(args) -> int:
    from repro.dataset import build_australian_open
    from repro.dataset.site import write_site

    dataset = build_australian_open(seed=args.seed)
    paths = write_site(dataset, args.out)
    print(f"wrote {len(paths)} pages under {args.out}")
    return 0


def _cmd_stats(args) -> int:
    from repro.library.persistence import load_model
    from repro.library.stats import collect_stats, format_stats

    model = load_model(args.metaindex)
    print(format_stats(collect_stats(model)))
    return 0


def _cmd_fsck(args) -> int:
    from repro.storage.fsck import fsck

    report = fsck(args.metaindex, args.journal)
    for line in report.lines:
        print(line)
    if report.problems:
        print(f"fsck: {len(report.problems)} problem(s) found")
        for problem in report.problems:
            print(f"  - {problem}")
        return 1
    print("fsck: clean")
    return 0


def _cmd_stream(args) -> int:
    if args.soak:
        return _stream_soak(args)
    if args.out is None:
        print("stream: --out is required without --soak")
        return 2
    import time

    from repro.dataset import build_australian_open
    from repro.library import DigitalLibraryEngine, LibrarySearchService
    from repro.library.indexing import default_journal_path
    from repro.library.service import format_query_stats
    from repro.storage.journal import IndexingJournal
    from repro.streaming import (
        StreamConfig,
        feed_streams,
        format_stream_health,
        iter_chunks,
    )

    config = StreamConfig(
        queue_chunks=args.queue_chunks, freshness_slo=args.slo_ms / 1e3
    )
    dataset = build_australian_open(seed=args.seed)
    engine = DigitalLibraryEngine(dataset)
    service = LibrarySearchService(engine)
    journal = IndexingJournal(args.journal or default_journal_path(args.out))

    in_flight: set[str] = set()
    if args.resume:
        try:
            restored = engine.indexer.restore_snapshot(args.out)
        except FileNotFoundError:
            pass  # nothing saved yet: resume degenerates to a fresh run
        else:
            in_flight = set(engine.indexer.stream_states)
            print(
                f"resume: restored {restored} video(s), "
                f"{len(in_flight)} stream(s) in flight"
            )
    ingestor = service.ingestor(path=args.out, journal=journal, config=config)

    plans = [
        plan
        for plan in dataset.video_plans[: args.videos]
        if plan.name in in_flight or plan.name not in engine.indexer.indexed
    ]
    if not plans:
        print("nothing to stream (all videos committed)")
        return 0
    feeds = {}
    for plan in plans:
        resume = plan.name in in_flight
        ingestor.open_stream(plan, resume=resume)
        start = (
            int(engine.indexer.stream_states[plan.name]["watermark"]) if resume else 0
        )
        clip, _truth = plan.materialise()
        feeds[plan.name] = iter_chunks(
            clip, args.chunk_frames, stream=plan.name, start=start,
            clock=time.monotonic,
        )
        print(
            f"stream {plan.name}: {len(clip)} frames in "
            f"{args.chunk_frames}-frame chunks"
            + (f", resuming at frame {start}" if resume else "")
        )
    refused = feed_streams(ingestor, feeds)
    drained = ingestor.drain()
    health = ingestor.health()
    for line in format_stream_health(health):
        print(line)
    print(f"saved {args.out}: {_counts(engine)}")
    print()
    print(format_query_stats(service.stats()))
    quarantined = sorted(
        name for name, row in health.items() if row.state == "quarantined"
    )
    if quarantined or refused or not drained:
        print(
            f"stream: trouble — quarantined {quarantined or '-'}, "
            f"refused {sorted(refused) or '-'}, drained {drained}"
        )
        return 1
    return 0


def _stream_soak(args) -> int:
    """``stream --soak``: chunk faults + readers + a kill drill (exit 1 on any violation)."""
    from repro.faults import FaultPlan, StreamFaultSpec
    from repro.sim import soak_stream
    from repro.streaming import StreamConfig

    sabotage = [] if args.fault_mode == "none" else [
        StreamFaultSpec(
            mode=args.fault_mode, delay_seconds=args.fault_delay_ms / 1e3, times=None
        )
    ]
    run = soak_stream(
        args.seed,
        args.videos,
        chunk_frames=args.chunk_frames,
        config=StreamConfig(
            queue_chunks=args.queue_chunks, freshness_slo=args.slo_ms / 1e3
        ),
        readers=args.readers,
        sabotage=FaultPlan(sabotage),
        kill_point=args.kill_point,
        seconds=args.seconds,
    )
    return _soak_exit(run, "soak: all invariants held")


def _cmd_query_stats(args) -> int:
    from repro.dataset import build_australian_open
    from repro.library import DigitalLibraryEngine, LibrarySearchService
    from repro.library.persistence import load_model
    from repro.library.service import format_query_stats

    queries = _parsed(args.queries)
    if queries is None:
        return 2
    if args.shards is not None:
        return _sharded_query_stats(args, queries)
    if args.metaindex is None:
        print("query-stats: --metaindex is required without --shards")
        return 2

    dataset = build_australian_open(seed=args.seed)
    engine = DigitalLibraryEngine(dataset)
    restored = engine.indexer.restore(load_model(args.metaindex))
    print(f"restored {restored} indexed video(s)")
    service = LibrarySearchService(engine, cache_size=args.cache_size)

    for text, query in zip(args.queries, queries):
        for _ in range(max(args.repeat, 1)):
            served = service.search(query)
        origin = "cache" if served.cache_hit else "engine"
        print(
            f"{text!r}: {len(served.results)} scene(s), "
            f"last served from {origin} in {served.seconds * 1e3:.2f} ms"
        )
    print()
    print(format_query_stats(service.stats()))
    return 0


@contextlib.contextmanager
def _shard_fleet(args):
    """The ``--shards N`` fleet of ``query-stats`` / ``health``, ``--videos`` ingested."""
    from repro.dataset.build import build_australian_open
    from repro.library.sharding import ShardedSearchService, ShardingConfig

    dataset = build_australian_open(seed=args.seed)
    names = [plan.name for plan in dataset.video_plans[: args.videos]]
    config = ShardingConfig(n_shards=args.shards, replication=args.replicas)
    chunked = args.chunk_frames
    initial = [] if chunked else names
    with ShardedSearchService(initial, seed=args.seed, config=config) as service:
        if chunked:
            result = service.index_videos(names, chunk_frames=chunked)
            status = "ok" if result.ok else "PARTIAL"
            print(
                f"streamed {len(names)} video(s) in {chunked}-frame chunks: {status}"
            )
        yield service


def _sharded_query_stats(args, queries: list) -> int:
    """``query-stats --shards N``: serve through shard workers, report."""
    from repro.library.sharding import format_sharded_stats

    with _shard_fleet(args) as service:
        for text, query in zip(args.queries, queries):
            for _ in range(max(args.repeat, 1)):
                served = service.search(query)
            origin = "cache" if served.cache_hit else "fan-out"
            print(
                f"{text!r}: {len(served.results)} scene(s), coverage "
                f"{served.coverage.label}, last served from {origin} "
                f"in {served.seconds * 1e3:.2f} ms"
            )
        print()
        print(format_sharded_stats(service.stats()))
    return 0


def _cmd_serve_bench(args) -> int:
    import time

    from repro.dataset import build_australian_open
    from repro.library import (
        DigitalLibraryEngine,
        LibrarySearchService,
        ResilienceConfig,
    )
    from repro.library.service import format_query_stats
    from repro.sim import query_mix

    dataset = build_australian_open(seed=args.seed)
    engine = DigitalLibraryEngine(dataset)
    budget_ms = args.budget_ms
    if budget_ms is None and args.soak:
        budget_ms = 50.0
    resilience = None
    if budget_ms is not None:
        resilience = ResilienceConfig(
            max_concurrent=args.max_concurrent,
            max_queue=args.queue,
            queue_timeout=args.queue_timeout_ms / 1e3,
            budget_seconds=budget_ms / 1e3,
        )
    service = LibrarySearchService(
        engine, cache_size=args.cache_size, resilience=resilience
    )
    for plan in dataset.video_plans[: args.videos]:
        service.index_plan(plan)
    print(f"indexed {args.videos} video(s); generation {service.generation}")

    if args.soak:
        return _run_soak(args, dataset, service, budget_ms)

    mix = query_mix()

    def run_pass(bypass_cache: bool) -> float:
        started = time.perf_counter()
        for query in mix:
            service.search(query, bypass_cache=bypass_cache)
        return (time.perf_counter() - started) / len(mix)

    cold = run_pass(bypass_cache=True)
    run_pass(bypass_cache=False)  # populate
    warm = run_pass(bypass_cache=False)
    speedup = cold / warm if warm > 0 else float("inf")
    print(
        f"cold latency {cold * 1e3:.3f} ms/query, "
        f"warm latency {warm * 1e3:.3f} ms/query, speedup {speedup:.1f}x"
    )

    _throughput(service, mix, args, "reader")
    print()
    print(format_query_stats(service.stats()))
    return 0


def _throughput(service, mix, args, who: str) -> None:
    """``--threads`` clients x ``--requests`` searches each; prints the rate."""
    import time
    from concurrent.futures import ThreadPoolExecutor

    def client(client_id: int) -> int:
        for step in range(args.requests):
            service.search(mix[(client_id + step) % len(mix)])
        return args.requests

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        served = sum(pool.map(client, range(args.threads)))
    elapsed = time.perf_counter() - started
    print(
        f"{args.threads} {who}(s) x {args.requests} request(s): "
        f"{served / elapsed:.0f} queries/s over {elapsed:.2f}s"
    )


def _soak_exit(run, passed: str) -> int:
    """Print a soak's report and verdict; the exit code."""
    for line in run.lines:
        print(line)
    if run.violations:
        print(f"{len(run.violations)} invariant violation(s):")
        for violation in run.violations[:20]:
            print(f"  {violation}")
        return 1
    print(passed)
    return 0


def _run_soak(args, dataset, service, budget_ms: float) -> int:
    """``serve-bench --soak``: readers + a writer + injected stage latency."""
    from repro.faults import FaultPlan, QueryFaultInjector, QueryFaultSpec
    from repro.sim import soak_serving

    faults = []
    if args.fault_ms > 0:
        faults.append(
            QueryFaultSpec(
                args.fault_stage,
                latency_seconds=args.fault_ms / 1e3,
                jitter_seconds=args.fault_ms / 4e3,
                jitter_seed=args.seed,
            )
        )
        print(f"injecting {args.fault_ms:.0f} ms latency into {args.fault_stage!r}")
    with QueryFaultInjector(FaultPlan(faults), service.engine).install():
        run = soak_serving(
            service,
            dataset.video_plans[args.videos:],
            threads=args.threads,
            seconds=args.seconds,
            p99_bound_ms=args.p99_ms if args.p99_ms is not None else 2.0 * budget_ms,
            join_slack=5.0 + args.fault_ms / 1e3,
        )
    return _soak_exit(
        run, "soak passed: no stuck threads, no unlabeled results, p99 within bound"
    )


def _cmd_serve_sharded(args) -> int:
    import time

    from repro.dataset.build import build_australian_open
    from repro.faults import FaultPlan, ShardFaultSpec
    from repro.library.sharding import (
        ShardedSearchService,
        ShardingConfig,
        format_sharded_stats,
    )
    from repro.sim import query_mix, soak_sharded

    dataset = build_australian_open(seed=args.seed)
    names = [plan.name for plan in dataset.video_plans[: args.videos]]
    config = ShardingConfig(
        n_shards=args.shards,
        replication=args.replicas,
        worker_threads=args.worker_threads,
        budget_seconds=args.budget_ms / 1e3,
        min_coverage=min(args.min_coverage, args.shards),
        quarantine_cooldown=0.3,
        probe_interval=0.1,
    )
    fault = None
    if args.soak and args.fault_shard is not None:
        fault = ShardFaultSpec(
            shard=args.fault_shard,
            mode=args.fault_mode,
            after=args.fault_after,
            delay_seconds=args.fault_ms / 1e3,
            times=1 if args.fault_mode == "kill" else None,
            replica=args.fault_replica,
        )
        target = f"shard {args.fault_shard}"
        if args.fault_replica is not None:
            target += f" replica {args.fault_replica}"
        print(
            f"injecting {args.fault_mode!r} into {target} "
            f"after {args.fault_after} deliveries"
        )

    started = time.perf_counter()
    with ShardedSearchService(
        names,
        seed=args.seed,
        config=config,
        fault_plan=FaultPlan([fault]) if fault is not None else None,
    ) as service:
        print(
            f"{args.shards} shard(s) x {args.replicas} replica(s) up in "
            f"{time.perf_counter() - started:.1f}s; "
            f"generation vector {list(service.generations)}"
        )
        if args.soak:
            run = soak_sharded(
                service,
                threads=args.threads,
                seconds=args.seconds,
                p99_bound_ms=(
                    args.p99_ms if args.p99_ms is not None else 2.0 * args.budget_ms
                ),
                fault=fault,
            )
            return _soak_exit(
                run,
                "soak passed: every answer coverage-labeled, no unhandled "
                "exceptions, p99 within bound",
            )

        mix = query_mix()
        for query in mix:
            service.search(query, bypass_cache=True)  # cold pass
        cold = time.perf_counter()
        for query in mix:
            service.search(query)
        print(f"cold pass done; warm pass {(time.perf_counter() - cold) * 1e3:.1f} ms")

        _throughput(service, mix, args, "client")
        print()
        print(format_sharded_stats(service.stats()))
    return 0


def _index_with_policy(args, make_fault_plan=None) -> int:
    """Shared driver of ``health`` and ``faults``: index and report."""
    from repro.dataset import build_australian_open
    from repro.faults import FaultInjector
    from repro.grammar.runtime import format_health_table
    from repro.grammar.tennis import build_tennis_fde
    from repro.library import DigitalLibraryEngine

    dataset = build_australian_open(seed=args.seed)
    fde = build_tennis_fde(policy=_policy_from_args(args))
    engine = DigitalLibraryEngine(dataset, fde=fde)
    plans = dataset.video_plans[: args.videos]
    fault_plan = (
        make_fault_plan([plan.name for plan in plans]) if make_fault_plan else None
    )
    injector = (
        FaultInjector(fault_plan, fde.registry).install() if fault_plan is not None else None
    )

    rolled_back = 0
    for plan in plans:
        try:
            engine.indexer.index_plan(plan)
        except Exception as exc:  # fail_fast rollback: the batch goes on
            rolled_back += 1
            print(f"{plan.name}: rolled back — {exc}")
    if injector is not None:
        print(f"injected {injector.injected} fault(s) from {len(fault_plan.specs)} spec(s)")

    reports = engine.indexing_health()
    print(format_health_table(reports))
    if rolled_back:
        print(f"rolled back: {rolled_back} video(s)")
    quarantined = fde.runner.quarantined_detectors
    if quarantined:
        print(f"quarantined detectors: {', '.join(quarantined)}")
    print(f"meta-index: {_counts(engine)}")
    return 0


def _cmd_health(args) -> int:
    if args.shards is not None:
        return _sharded_health(args)
    return _index_with_policy(args)


def _sharded_health(args) -> int:
    """``health --shards N``: probe the shard fleet and print its table."""
    from repro.library.sharding import format_sharded_stats
    from repro.sim import out_of_rotation, query_mix

    with _shard_fleet(args) as service:
        for query in query_mix():
            service.search(query)
        stats = service.stats()
        print(format_sharded_stats(stats))
        sick = [
            row.shard
            for row in stats.shards
            if not row.alive or row.breaker_state != "closed"
        ]
        sick_replicas = out_of_rotation(stats)
        if sick or sick_replicas:
            if sick:
                print(f"unhealthy shard(s): {sick}")
            if sick_replicas:
                print(f"out-of-rotation replica(s): {sick_replicas}")
            return 1
        print("all shards healthy")
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import FaultPlan
    from repro.grammar.runtime import (
        DetectorTimeoutError,
        PermanentDetectorError,
        TransientDetectorError,
    )

    error = {
        "transient": TransientDetectorError,
        "permanent": PermanentDetectorError,
        "timeout": DetectorTimeoutError,
    }[args.error]

    def make_fault_plan(names: list[str]) -> FaultPlan:
        return FaultPlan.random(
            detectors=["segment", "tennis", "shape", "rules"],
            videos=names,
            rate=args.rate,
            seed=args.fault_seed,
            error=error,
            times=args.times if args.times > 0 else None,
        )

    return _index_with_policy(args, make_fault_plan=make_fault_plan)


_COMMANDS = {
    "figure1": _cmd_figure1,
    "index": _cmd_index,
    "query": _cmd_query,
    "ann-build": _cmd_ann_build,
    "search": _cmd_search,
    "demo": _cmd_demo,
    "export-mpeg7": _cmd_export_mpeg7,
    "build-site": _cmd_build_site,
    "stats": _cmd_stats,
    "query-stats": _cmd_query_stats,
    "serve-bench": _cmd_serve_bench,
    "serve-sharded": _cmd_serve_sharded,
    "fsck": _cmd_fsck,
    "stream": _cmd_stream,
    "health": _cmd_health,
    "faults": _cmd_faults,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
