"""Scene results, score fusion, coverage labels and the shard merge."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

__all__ = [
    "Coverage",
    "SceneResult",
    "fuse_scores",
    "merge_scene_results",
    "scene_order",
]


@dataclass(frozen=True)
class SceneResult:
    """One answer scene: a frame range of a video, with provenance.

    Attributes:
        video_name: the video containing the scene.
        start: first frame of the scene.
        stop: one past the last frame.
        event_label: the event the scene shows (None for whole-video hits).
        match_title: the match the video records.
        players: names of the (query-matching) players in the match.
        score: fused relevance score (higher is better).
        ann_stale: the result came from an ANN index built at an older
            generation than the catalog serving it — scenes committed
            since the build (e.g. by live streaming ingest) are absent
            from the candidate pool.  Labeled, never silent; rebuild or
            ``adopt_ann`` clears it.
    """

    video_name: str
    start: int
    stop: int
    event_label: str | None
    match_title: str
    players: tuple[str, ...] = ()
    score: float = 1.0
    ann_stale: bool = False

    @property
    def length(self) -> int:
        return self.stop - self.start

    def scene_key(self) -> tuple[str, int, int, str | None]:
        """Scene identity ignoring scores — what degraded results keep.

        A degraded (stage-skipping) evaluation drops score *evidence*
        but never invents scenes: its keys are a subset of the full
        evaluation's keys.  The property tests compare on this.
        """
        return (self.video_name, self.start, self.stop, self.event_label)


@dataclass(frozen=True)
class Coverage:
    """Which shards of a scatter-gather fan-out contributed to a result.

    Partial results are a *typed* outcome, never a silent one: every
    sharded answer carries the shards that responded and the shards
    that did not (dead, quarantined, timed out, or over deadline), so a
    caller can always tell "the library has no such scene" apart from
    "two of four shards never answered".

    Attributes:
        responded: shard ids whose rankings are merged into the result.
        missing: shard ids whose catalog slice is absent from it.
    """

    responded: tuple[int, ...]
    missing: tuple[int, ...] = ()

    @property
    def total(self) -> int:
        return len(self.responded) + len(self.missing)

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return len(self.responded) / self.total

    @property
    def label(self) -> str:
        """``"k/N"`` — the coverage tag reports and logs print."""
        return f"{len(self.responded)}/{self.total}"

    @classmethod
    def full(cls, n_shards: int) -> "Coverage":
        return cls(responded=tuple(range(n_shards)))


def scene_order(result: SceneResult) -> tuple[float, str, int]:
    """The canonical total order on results (best first, stable ties).

    The same key :meth:`DigitalLibraryEngine.search` ranks with; a
    total order across shards because a video (hence a scene) lives on
    exactly one shard.
    """
    return (-result.score, result.video_name, result.start)


def merge_scene_results(
    parts: Iterable[Sequence[SceneResult]], top_n: int
) -> list[SceneResult]:
    """Merge per-shard scene rankings into the global top-*top_n*.

    Each part must be locally ranked under :func:`scene_order` (what
    every shard returns).  Videos are partitioned across shards, so the
    k-way merge is exact — byte-identical to ranking the unsharded
    library — and with parts missing it degrades to the correctly
    ranked subset the surviving shards cover.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    return list(islice(heapq.merge(*parts, key=scene_order), top_n))


def fuse_scores(content_confidence: float, text_score: float | None) -> float:
    """Combine event confidence with an optional text score.

    Text scores are unbounded (tf-idf sums); they are squashed into
    (0, 1) before a weighted combination, so content evidence dominates
    and text breaks ties — the behaviour a demo engine wants.
    """
    if text_score is None:
        return content_confidence
    squashed = text_score / (1.0 + text_score)
    return 0.7 * content_confidence + 0.3 * squashed
