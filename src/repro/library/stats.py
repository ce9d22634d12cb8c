"""Library statistics: what's in the meta-index, and how serving feels.

A librarian's view of the indexed collection, computed relationally
(group counts and joins over the column-store form): videos, shot-
category distribution, event-label distribution, tracked-object
coverage.  Used by the CLI's ``stats`` command and handy in notebooks.

Also home of :class:`LatencyReservoir`, the bounded tail-latency sample
the query-serving layer reports p50/p95/p99 from — aggregate seconds
hide exactly the overload behaviour the resilience machinery exists to
bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.model import CobraModel
from repro.library.persistence import model_to_catalog
from repro.storage.query import group_count

__all__ = [
    "LatencyReservoir",
    "LibraryStats",
    "collect_stats",
    "format_stats",
    "merged_summary",
    "nearest_rank",
]

#: The percentiles a reservoir summary reports.
PERCENTILES = (50, 95, 99)


def nearest_rank(sorted_samples, p: float):
    """The nearest-rank *p*-th percentile of ascending *sorted_samples*.

    The one percentile definition every reservoir, soak harness and
    benchmark gate shares (``None`` when there are no samples).
    """
    if not sorted_samples:
        return None
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = max(1, -(-len(sorted_samples) * p // 100))  # ceil without floats
    return sorted_samples[int(rank) - 1]


class LatencyReservoir:
    """A bounded ring of recent latency samples with percentile queries.

    Keeps the last *capacity* samples (a sliding window, deterministic
    — no sampling randomness), answering nearest-rank percentiles over
    the window.  Memory is O(capacity) no matter how long the service
    runs.  Not thread-safe on its own: the serving layer records and
    reads under its stats lock.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._samples: deque[float] = deque(maxlen=capacity)
        self.recorded = 0  # lifetime count, beyond the window

    def add(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._samples)

    def clear(self) -> None:
        self._samples.clear()
        self.recorded = 0

    def percentile(self, p: float) -> float | None:
        """Nearest-rank percentile over the window (``None`` when empty)."""
        return nearest_rank(sorted(self._samples), p)

    def percentile_or(self, p: float, default: float, min_samples: int = 1) -> float:
        """Nearest-rank percentile, or *default* on too few samples.

        The sharded serving layer's hedge trigger wants "this shard's
        p95 latency" but must behave sanely before a shard has history:
        with fewer than *min_samples* recorded the *default* (the
        configured hedge floor) is returned instead of a noisy estimate
        over one or two points.
        """
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if len(self._samples) < min_samples:
            return default
        value = self.percentile(p)
        return default if value is None else value

    def summary(self) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` in seconds (empty dict when no samples)."""
        if not self._samples:
            return {}
        return {f"p{p}": self.percentile(p) for p in PERCENTILES}


def merged_summary(reservoirs: list[LatencyReservoir]) -> dict[str, float]:
    """Percentile summary over the union of several reservoirs' windows.

    The replicated serving layer keeps one latency reservoir per
    replica (the hedge trigger is per replica), but health rows report
    *shard-level* latency — the distribution a caller of the group
    actually experiences — so the group row merges its replicas'
    windows before taking percentiles.  Empty dict when no reservoir
    holds a sample.
    """
    merged: list[float] = []
    for reservoir in reservoirs:
        merged.extend(reservoir._samples)  # noqa: SLF001 — same-module accessor
    if not merged:
        return {}
    ordered = sorted(merged)
    return {f"p{p}": nearest_rank(ordered, p) for p in PERCENTILES}


@dataclass
class LibraryStats:
    """Aggregate statistics of one meta-index.

    Attributes:
        n_videos: raw-layer count.
        total_frames: frames across all videos.
        shots_by_category: category -> shot count.
        events_by_label: label -> event count.
        mean_event_confidence: across all events (None when no events).
        mean_track_coverage: mean found-fraction across objects (None
            when no objects).
        events_per_minute: event density over the indexed footage.
    """

    n_videos: int = 0
    total_frames: int = 0
    shots_by_category: dict[str, int] = field(default_factory=dict)
    events_by_label: dict[str, int] = field(default_factory=dict)
    mean_event_confidence: float | None = None
    mean_track_coverage: float | None = None
    events_per_minute: float | None = None


def collect_stats(model: CobraModel) -> LibraryStats:
    """Compute :class:`LibraryStats` for a meta-index."""
    catalog = model_to_catalog(model)
    videos = catalog.table("videos")
    shots = catalog.table("shots")
    events = catalog.table("events")
    trajectories = catalog.table("trajectories")

    stats = LibraryStats(
        n_videos=len(videos),
        total_frames=int(sum(videos.column("n_frames").values()))
        if len(videos)
        else 0,
        shots_by_category=dict(sorted(group_count(shots, "category").items())),
        events_by_label=dict(sorted(group_count(events, "label").items())),
    )

    if len(events):
        stats.mean_event_confidence = float(
            np.mean(events.column("confidence").values())
        )

    if len(trajectories):
        found_by_object: dict[int, list[bool]] = {}
        object_ids = trajectories.column("object_id")
        founds = trajectories.column("found")
        for row_id in range(len(trajectories)):
            found_by_object.setdefault(object_ids.get(row_id), []).append(
                founds.get(row_id)
            )
        coverages = [np.mean(flags) for flags in found_by_object.values()]
        stats.mean_track_coverage = float(np.mean(coverages))

    # Event density, using each video's own frame rate.
    if len(events) and len(videos):
        total_minutes = 0.0
        for row in videos.scan():
            total_minutes += row["n_frames"] / row["fps"] / 60.0
        if total_minutes > 0:
            stats.events_per_minute = len(events) / total_minutes
    return stats


def format_stats(stats: LibraryStats) -> str:
    """Render stats as the text block the CLI prints."""
    lines = [
        f"videos: {stats.n_videos} ({stats.total_frames} frames)",
        "shots by category:",
    ]
    for category, count in stats.shots_by_category.items():
        lines.append(f"  {category:12s} {count}")
    lines.append("events by label:")
    for label, count in stats.events_by_label.items():
        lines.append(f"  {label:14s} {count}")
    if stats.mean_event_confidence is not None:
        lines.append(f"mean event confidence: {stats.mean_event_confidence:.2f}")
    if stats.mean_track_coverage is not None:
        lines.append(f"mean track coverage: {stats.mean_track_coverage:.2%}")
    if stats.events_per_minute is not None:
        lines.append(f"event density: {stats.events_per_minute:.1f}/min")
    return "\n".join(lines)
