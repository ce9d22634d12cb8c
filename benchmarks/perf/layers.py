"""Which callables are wrapped, and how spans become per-layer metrics.

Span names are ``<group>/<callable>``.  A group is one layer bucket: the
self times of its spans sum to that layer's ``*_s`` metric, so the groups
of one traced round — plus the benchmark's own root spans, reported as
``tracing.unattributed_s`` — add up to the traced wall exactly.

Detectors are closures inside an FDE's registry, not module globals; they
are wrapped per engine through ``DetectorRegistry.wrap`` (see
:func:`wrap_detectors`), the hook the registry offers for instrumentation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from benchmarks.perf.harness import percentile
from benchmarks.perf.spans import Span, Target, Tracer, self_times_ns

__all__ = ["TARGETS", "TraceSummary", "derive", "summarise", "wrap_detectors"]


def _chunk_id(args, kwargs):
    chunk = args[1]
    return f"{chunk.stream}#{chunk.start}"


def _clip_id(args, kwargs):
    return getattr(args[1], "name", None)


def _frames(args, kwargs, result):
    return len(args[1])


def _snapshot_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


_VISION = (
    Target("vision.batch/frame_statistics_batch", "repro.vision.stats", "frame_statistics_batch"),
    Target("vision.batch/color_coverages", "repro.vision.dominant", "color_coverages"),
    Target("vision.batch/dominant_colors", "repro.vision.dominant", "dominant_colors"),
    Target("vision.batch/skin_ratios", "repro.vision.skin", "SkinColorModel.ratios"),
    Target("vision.batch/color_histograms", "repro.vision.histogram", "color_histograms"),
    Target("vision.regions/regions_in", "repro.vision.regions", "regions_in"),
    Target("vision.regions/label_regions", "repro.vision.regions", "label_regions"),
    Target("vision.morphology/opening", "repro.vision.morphology", "opening"),
    Target("vision.morphology/closing", "repro.vision.morphology", "closing"),
)
_TRACKING = (
    Target("tracking/track_shot_player", "repro.grammar.tennis", "track_shot_player"),
    Target("tracking/track", "repro.tracking.tracker", "PlayerTracker.track", units=_frames),
    Target("events/detect_player_events", "repro.grammar.tennis", "detect_player_events"),
)
_STORAGE = (
    Target("storage.snapshot/save_model", "repro.library.persistence", "save_model"),
    Target(
        "storage.snapshot/save_catalog",
        "repro.storage.persist",
        "save_catalog",
        units=_snapshot_bytes,
    ),
    Target("storage.journal/append", "repro.storage.journal", "IndexingJournal.append"),
    Target("storage.fsync/os.fsync", "os", "fsync", count_only=True),
)
_MATERIALISE = (
    Target("video/materialise", "benchmarks.perf.inputs", "CachedPlan.materialise"),
)
_BATCH = _MATERIALISE + (
    Target(
        "grammar/index_video",
        "repro.grammar.fde",
        "FeatureDetectorEngine.index_video",
        trace_id=_clip_id,
    ),
)
_STREAM = (
    Target(
        "streaming/offer", "repro.streaming.ingest", "StreamIngestor.offer", trace_id=_chunk_id
    ),
    Target(
        "streaming/push_chunk",
        "repro.streaming.session",
        "StreamSession.push_chunk",
        trace_id=_chunk_id,
    ),
    Target("streaming.segmenter/push", "repro.streaming.segmenter", "StreamingSegmenter.push"),
)
_QUERY = (
    Target("library.parser/parse_query", "repro.library.parser", "parse_query"),
    Target("library.service/search", "repro.library.service", "LibrarySearchService.search"),
    Target("library.engine/search", "repro.library.engine", "DigitalLibraryEngine.search"),
    Target(
        "webspace/concept_players", "repro.library.engine", "DigitalLibraryEngine.concept_players"
    ),
    Target(
        "webspace/videos_of_players",
        "repro.library.engine",
        "DigitalLibraryEngine.videos_of_players",
    ),
    Target("ir/text_scores", "repro.library.engine", "DigitalLibraryEngine.text_scores"),
)
_LIKE = (
    Target(
        "library.engine/search_like", "repro.library.engine", "DigitalLibraryEngine.search_like"
    ),
    Target("ir.ann/vectorize_clip", "repro.ir.ann", "ShotVectorizer.vectorize_clip"),
    Target("ir.ann/search", "repro.ir.ann", "AnnIndex.search"),
)
_COMMIT = _MATERIALISE + (
    Target(
        "library.service/index_plan", "repro.library.service", "LibrarySearchService.index_plan"
    ),
)
_SHARDED = (
    Target("library.parser/parse_query", "repro.library.parser", "parse_query"),
    Target("library.sharding/search", "repro.library.sharding", "ShardedSearchService.search"),
    Target("library.sharding/merge", "repro.library.results", "merge_scene_results"),
)

#: Workload -> the callables wrapped in its traced rounds.  Every one must
#: fire at least once or the traced run fails.
TARGETS: dict[str, tuple[Target, ...]] = {
    "ingest-batch": _VISION + _TRACKING + _STORAGE + _BATCH + _QUERY,
    "ingest-stream": _VISION + _TRACKING + _STORAGE + _STREAM + _QUERY,
    "serve-cold": _QUERY + _LIKE,
    "serve-hot": _QUERY + _COMMIT,
    "serve-sharded": _SHARDED,
}

#: Detector name -> span name for the FDE registry's closures.
_DETECTOR_SPANS = {
    "segment": "shots/segment",
    "tennis": "tracking/tennis",
    "shape": "tracking.shape/shape",
    "rules": "events/rules",
}


def wrap_detectors(tracer: Tracer, fde) -> None:
    """Record a span around each detector of *fde* (a fresh engine's FDE)."""
    for detector, span in _DETECTOR_SPANS.items():
        fde.registry.wrap(detector, lambda fn, span=span: tracer.wrap(span, fn))


@dataclass
class TraceSummary:
    """Spans folded per name and per group (seconds, not nanoseconds)."""

    rounds: int
    wall_s: float = 0.0
    group_self_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, list[float]] = field(default_factory=dict)
    total_s: dict[str, list[float]] = field(default_factory=dict)
    units: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    queue_wait_s: list[float] = field(default_factory=list)
    service_split: dict[str, list[float]] = field(default_factory=dict)

    def group(self, name: str) -> float:
        """Self seconds of a group, per traced round."""
        return self.group_self_s.get(name, 0.0) / self.rounds

    def span(self, name: str) -> float:
        """Self seconds of one span name, per traced round."""
        return sum(self.self_s.get(name, [])) / self.rounds

    def count(self, name: str) -> float:
        """Calls of one span name, per traced round."""
        return self.counts.get(name, 0) / self.rounds

    def calls(self, prefix: str) -> float:
        """Calls of every span name starting with *prefix*, per traced round."""
        return sum(n for name, n in self.counts.items() if name.startswith(prefix)) / self.rounds

    def work(self, name: str) -> float:
        """Units of work (frames, bytes) one span name reported, per traced round."""
        return self.units.get(name, 0.0) / self.rounds


def summarise(tracer: Tracer, rounds: int) -> TraceSummary:
    """Fold a tracer's spans; *rounds* is how many traced rounds filled it."""
    summary = TraceSummary(rounds=max(1, rounds), counts=dict(tracer.counts))
    own = self_times_ns(tracer.spans)
    has_engine_child: set[int] = set()
    offers: dict[object, Span] = {}
    for span in tracer.spans:
        name = span.name
        group = name.split("/", 1)[0]
        self_s = own[id(span)] / 1e9
        summary.group_self_s[group] = summary.group_self_s.get(group, 0.0) + self_s
        summary.self_s.setdefault(name, []).append(self_s)
        summary.total_s.setdefault(name, []).append(span.duration_ns / 1e9)
        summary.units[name] = summary.units.get(name, 0.0) + span.units
        summary.counts[name] = summary.counts.get(name, 0) + 1
        if span.parent is None:
            summary.wall_s += span.duration_ns / 1e9
        elif name == "library.engine/search" and span.parent.name == "library.service/search":
            has_engine_child.add(id(span.parent))
        if name == "streaming/offer":
            offers[span.trace_id] = span
    for span in tracer.spans:
        if span.name == "library.service/search":
            # A miss spends its self time around the engine call; a hit has
            # no engine child and is service work from end to end.
            kind = "miss_overhead" if id(span) in has_engine_child else "hit"
            summary.service_split.setdefault(kind, []).append(own[id(span)] / 1e9)
        elif span.name == "streaming/push_chunk" and span.trace_id in offers:
            waited = (span.start_ns - offers[span.trace_id].start_ns) / 1e9
            summary.queue_wait_s.append(max(0.0, waited))
    return summary


def _p(samples: list[float], p: float, scale: float) -> float:
    return percentile(samples, p) * scale if samples else 0.0


def derive(trace: TraceSummary, extras: dict) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced pass.

    Times, calls and units are per traced round.  *extras* carries what
    spans cannot: counts read from the program's own stats after the first
    round (shots, events, cache counters, stream health), latency samples
    of the untraced rounds, and file sizes.  A layer the workload's traced
    rounds never enter reports 0.
    """
    get = extras.get
    bytes_written = trace.work("storage.snapshot/save_catalog") + get("journal_bytes", 0.0)
    final_bytes = get("final_bytes", 0.0)
    latencies = get("latencies_ms", [])
    sharded = get("sharded_ms", [])
    shard_p50 = get("shard_p50_ms", [])
    chunk_ms = [s * 1e3 for s in trace.total_s.get("streaming/push_chunk", [])]
    results = get("results_returned", 0)
    postings = get("postings_scored", 0)
    return {
        "video.materialise_s": trace.group("video"),
        "grammar.fde_self_s": trace.group("grammar"),
        "grammar.detector_runs": sum(trace.count(span) for span in _DETECTOR_SPANS.values()),
        "grammar.detector_retries": get("detector_retries", 0),
        "shots.segment_self_s": trace.group("shots"),
        "shots.shots_detected": get("shots_detected", 0),
        "vision.batch_kernels_s": trace.group("vision.batch"),
        "vision.regions_s": trace.group("vision.regions"),
        "vision.morphology_s": trace.group("vision.morphology"),
        "vision.calls": trace.calls("vision."),
        "tracking.track_self_s": trace.group("tracking"),
        "tracking.shape_s": trace.group("tracking.shape"),
        "tracking.frames_tracked": trace.work("tracking/track"),
        "events.rules_s": trace.group("events"),
        "events.events_detected": get("events_detected", 0),
        "storage.snapshot_s": trace.group("storage.snapshot"),
        "storage.snapshot_calls": trace.count("storage.snapshot/save_catalog"),
        "storage.bytes_written": bytes_written,
        "storage.write_amplification": bytes_written / final_bytes if final_bytes else 0.0,
        "storage.journal_s": trace.group("storage.journal"),
        "storage.journal_appends": trace.count("storage.journal/append"),
        "storage.fsyncs": trace.count("storage.fsync/os.fsync"),
        "streaming.segmenter_push_s": trace.group("streaming.segmenter"),
        "streaming.session_self_s": trace.group("streaming"),
        "streaming.chunk_service_p50_ms": _p(chunk_ms, 50, 1.0),
        "streaming.chunk_service_p95_ms": _p(chunk_ms, 95, 1.0),
        "streaming.queue_wait_p50_ms": _p(trace.queue_wait_s, 50, 1e3),
        "streaming.chunks_committed": get("chunks_committed", 0),
        "streaming.chunks_shed": get("chunks_shed", 0),
        "streaming.backlog_max": get("backlog_max", 0),
        "streaming.generator_late_max_ms": get("generator_late_max_ms", 0.0),
        "library.parser.parse_s": trace.group("library.parser"),
        "webspace.concept_filter_s": trace.group("webspace"),
        "ir.text_topn_s": trace.group("ir"),
        "ir.postings_scored": postings,
        "ir.postings_per_result": postings / results if results else 0.0,
        "ir.ann.embed_s": trace.span("ir.ann/vectorize_clip"),
        "ir.ann.search_s": trace.span("ir.ann/search"),
        "ir.ann.candidates_per_query": get("ann_candidates_per_query", 0),
        "ir.ann.build_s": get("ann_build_s", 0.0),
        "ir.ann.like_p50_ms": _p(get("like_ms", []), 50, 1.0),
        "library.engine.search_self_s": trace.group("library.engine"),
        "library.service.miss_overhead_p50_us": _p(
            trace.service_split.get("miss_overhead", []), 50, 1e6
        ),
        "library.service.hit_p50_us": _p(trace.service_split.get("hit", []), 50, 1e6),
        "library.service.cache_hit_ratio": get("cache_hit_ratio", 0.0),
        "library.service.cache_evictions": get("cache_evictions", 0),
        "library.service.generation_bumps": get("generation_bumps", 0),
        "library.service.commit_p50_ms": _p(get("commit_ms", []), 50, 1.0),
        "library.service.reader_stall_max_ms": max(latencies, default=0.0),
        "library.service.query_p99_ms": _p(latencies, 99, 1.0),
        "library.sharding.shard_eval_p50_ms": max(shard_p50, default=0.0),
        "library.sharding.fanout_overhead_p50_ms": (
            _p(sharded, 50, 1.0) - max(shard_p50) if shard_p50 else 0.0
        ),
        "library.sharding.merge_s": trace.span("library.sharding/merge"),
        "library.sharding.shard_skew": (
            max(shard_p50) / min(shard_p50) if shard_p50 and min(shard_p50) > 0 else 0.0
        ),
        "library.sharding.hedges": get("hedges", 0),
        "library.sharding.failovers": get("failovers", 0),
        "library.sharding.query_p99_ms": _p(sharded, 99, 1.0),
        "tracing.overhead_ratio": get("overhead_ratio", 0.0),
        "tracing.traced_wall_s": trace.wall_s / trace.rounds,
        "tracing.unattributed_s": trace.group("bench"),
    }
