"""Shot-boundary detection from colour-histogram differences.

Two detectors, in increasing sophistication:

- :class:`ThresholdCutDetector` — the paper's method: declare a cut where
  the histogram difference between neighbouring frames exceeds a fixed
  threshold.
- :class:`TwinComparisonDetector` — Zhang et al.'s twin-comparison
  extension that also recovers *gradual* transitions (fades, dissolves)
  by accumulating consecutive moderate differences.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.video.frames import VideoClip
from repro.vision.histogram import (
    color_histogram,
    color_histograms,
    histogram_difference,
    hsv_histogram,
    hsv_histograms,
)

__all__ = [
    "Boundary",
    "frame_distances",
    "frame_distances_reference",
    "ThresholdCutDetector",
    "TwinComparisonDetector",
]


@dataclass(frozen=True)
class Boundary:
    """A detected shot boundary.

    Attributes:
        frame: for a cut, the index of the first frame of the new shot;
            for a gradual transition, the first frame of the span.
        kind: ``"cut"`` or ``"gradual"``.
        length: transition length in frames (0 for cuts).
        score: the histogram-difference evidence behind the detection.
    """

    frame: int
    kind: str = "cut"
    length: int = 0
    score: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("cut", "gradual"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.frame < 1:
            raise ValueError("a boundary cannot precede frame 1")

    @property
    def span(self) -> tuple[int, int]:
        """Frame range ``[start, stop)`` covered by the transition."""
        return self.frame, self.frame + max(self.length, 1)


def frame_distances(
    clip: VideoClip | Sequence[np.ndarray], bins: int = 8, color_space: str = "rgb"
) -> np.ndarray:
    """Histogram difference between each frame and its predecessor.

    ``distances[i]`` is the difference between frames ``i-1`` and ``i``;
    entry 0 is 0 by convention (no predecessor).

    Args:
        clip: the video (or any sequence of RGB frames).
        bins: per-channel histogram quantisation.
        color_space: ``"rgb"`` (the paper's) or ``"hsv"`` (E2a ablation).

    Returns:
        float64 array of length ``len(clip)``.
    """
    if color_space not in ("rgb", "hsv"):
        raise ValueError(f"color_space must be rgb/hsv, got {color_space!r}")
    histograms = color_histograms if color_space == "rgb" else hsv_histograms
    if len(clip) == 0:
        return np.zeros(0)
    hists = histograms(clip, bins=bins)
    distances = np.zeros(hists.shape[0])
    if hists.shape[0] > 1:
        distances[1:] = np.abs(np.diff(hists, axis=0)).sum(axis=1) / 2.0
    return distances


def frame_distances_reference(
    clip: VideoClip | Sequence[np.ndarray], bins: int = 8, color_space: str = "rgb"
) -> np.ndarray:
    """Per-frame loop form of :func:`frame_distances` (the seed's code).

    Kept as the semantic anchor of the batched pass — the differential
    suite pins the two equal and the E9 vision gate measures the batched
    kernels' speedup against this loop.
    """
    if color_space not in ("rgb", "hsv"):
        raise ValueError(f"color_space must be rgb/hsv, got {color_space!r}")
    histogram = color_histogram if color_space == "rgb" else hsv_histogram
    frames = list(clip)
    distances = np.zeros(len(frames))
    if not frames:
        return distances
    prev = histogram(frames[0], bins=bins)
    for i in range(1, len(frames)):
        hist = histogram(frames[i], bins=bins)
        distances[i] = histogram_difference(prev, hist)
        prev = hist
    return distances


class ThresholdCutDetector:
    """Fixed-threshold cut detection — the paper's boundary method.

    A cut is declared at frame ``i`` when the histogram difference between
    frames ``i-1`` and ``i`` exceeds *threshold*.  Consecutive
    over-threshold frames (as produced by very fast motion) collapse into
    a single boundary at the first frame of the run.

    Args:
        threshold: difference level in ``[0, 1]`` that signals a cut.
        bins: histogram quantisation per channel.
    """

    def __init__(self, threshold: float = 0.35, bins: int = 8, color_space: str = "rgb"):
        if not 0 < threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.bins = bins
        self.color_space = color_space

    def detect(self, clip: VideoClip | Sequence[np.ndarray]) -> list[Boundary]:
        """Detect cut boundaries in *clip*."""
        distances = frame_distances(clip, bins=self.bins, color_space=self.color_space)
        return self._from_distances(distances)

    def _from_distances(self, distances: np.ndarray) -> list[Boundary]:
        over = distances > self.threshold
        boundaries: list[Boundary] = []
        i = 1
        n = len(distances)
        while i < n:
            if over[i]:
                run_start = i
                while i < n and over[i]:
                    i += 1
                peak = float(distances[run_start:i].max())
                boundaries.append(Boundary(frame=run_start, kind="cut", score=peak))
            else:
                i += 1
        return boundaries


class TwinComparisonDetector:
    """Twin-comparison detection of cuts *and* gradual transitions.

    Differences above *high* are cuts.  A difference above *low* opens a
    candidate gradual transition; consecutive frames with differences
    above *low* accumulate, and if the accumulated difference exceeds
    *high* the span is reported as a gradual boundary.

    A post-processing pass merges events whose spans lie within
    *merge_gap* frames of each other: a fade produces interleaved spikes
    and accumulations, and the merged span — reported as gradual when it
    covers 3+ frames — is the actual transition.  True cuts are isolated
    one/two-frame spikes and survive merging unchanged.

    Args:
        high: cut threshold; single spikes above it are cuts.
        low: accumulation threshold for gradual candidates; must be < high.
        merge_gap: maximum quiet gap (frames) bridged when merging events.
        bins: histogram quantisation per channel.
    """

    def __init__(
        self, high: float = 0.8, low: float = 0.08, merge_gap: int = 3, bins: int = 8
    ):
        if not 0 < low < high <= 1:
            raise ValueError(f"need 0 < low < high <= 1, got low={low}, high={high}")
        if merge_gap < 0:
            raise ValueError(f"merge_gap must be >= 0, got {merge_gap}")
        self.high = high
        self.low = low
        self.merge_gap = merge_gap
        self.bins = bins

    def detect(self, clip: VideoClip | Sequence[np.ndarray]) -> list[Boundary]:
        """Detect both cut and gradual boundaries."""
        distances = frame_distances(clip, bins=self.bins)
        return [event for event, _ in self._merge(self._raw_events(distances))]

    def _raw_events(self, distances: np.ndarray) -> list[Boundary]:
        """First pass: spike runs as cuts, accumulation runs as gradual."""
        events: list[Boundary] = []
        n = len(distances)
        i = 1
        while i < n:
            if distances[i] > self.high:
                run_start = i
                while i < n and distances[i] > self.high:
                    i += 1
                peak = float(distances[run_start:i].max())
                events.append(
                    Boundary(frame=run_start, kind="cut", length=0, score=peak)
                )
                continue
            if distances[i] > self.low:
                span_start = i
                accumulated = 0.0
                while i < n and self.low < distances[i] <= self.high:
                    accumulated += float(distances[i])
                    i += 1
                if accumulated > self.high:
                    events.append(
                        Boundary(
                            frame=span_start,
                            kind="gradual",
                            length=i - span_start,
                            score=accumulated,
                        )
                    )
                continue
            i += 1
        return events

    def _merge(self, events: list[Boundary]) -> list[tuple[Boundary, int]]:
        """Second pass: merge nearby events; long merged spans are gradual.

        Each merged event is paired with the index of its last raw
        constituent, where an incremental scan resumes.
        """
        merged: list[tuple[Boundary, int]] = []
        for i, event in enumerate(events):
            if merged and event.span[0] - merged[-1][0].span[1] <= self.merge_gap:
                prev = merged[-1][0]
                start = prev.span[0]
                stop = event.span[1]
                event = Boundary(
                    frame=start,
                    kind="gradual" if stop - start >= 3 else "cut",
                    length=(stop - start) if stop - start >= 3 else 0,
                    score=max(prev.score, event.score),
                )
                merged.pop()
            merged.append((event, i))
        return merged
