"""Crash-safe live streaming ingest (chunk-append indexing).

Frames arrive in bounded :class:`~repro.streaming.chunker.FrameChunk`
batches; :class:`~repro.streaming.segmenter.StreamingSegmenter` runs
shot-boundary detection incrementally with carry-over state across
chunk edges; :class:`~repro.streaming.session.StreamSession` lands each
chunk as a journal record pair around one checksummed delta-log record
(resume exactly at the last committed chunk after a kill); and
:class:`~repro.streaming.ingest.StreamIngestor` runs many sessions
behind bounded queues with typed backpressure, stall quarantine and a
per-stream freshness SLO metric.
"""

from repro.streaming.chunker import FrameChunk, iter_chunks
from repro.streaming.ingest import (
    StreamConfig,
    StreamHealth,
    StreamIngestor,
    feed_streams,
    format_stream_health,
)
from repro.streaming.segmenter import StreamingSegmenter
from repro.streaming.session import ChunkCommit, StreamGapError, StreamSession

__all__ = [
    "FrameChunk",
    "iter_chunks",
    "StreamingSegmenter",
    "StreamSession",
    "ChunkCommit",
    "StreamGapError",
    "StreamIngestor",
    "StreamConfig",
    "StreamHealth",
    "feed_streams",
    "format_stream_health",
]
