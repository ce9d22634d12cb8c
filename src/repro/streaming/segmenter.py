"""Incremental shot segmentation over streaming frame chunks.

:class:`StreamingSegmenter` wraps a batch
:class:`~repro.shots.segmenter.SegmentDetector` and reproduces its
output *incrementally*: frames are pushed in chunks, and a shot is
emitted as soon as the boundary evidence that closes it can no longer
change.  For any chunking of a clip, the concatenation of emitted shots
equals ``SegmentDetector.detect(clip)`` bit-for-bit — histograms are
per-frame independent, distances are the same pairwise float ops, and a
boundary is only declared *final* once no future frame can merge into
or extend it.

Finality rule (twin comparison): distances partition into maximal
regime runs (cut: ``d > high``; accumulation: ``low < d <= high``).
Let ``tail`` be the start of the run still open at the end of the
distance array (or ``n`` when the last frame is quiet).  New raw events
can only start at or after ``tail``, and the merge pass bridges gaps of
at most ``merge_gap`` frames, so a merged boundary ``m`` is final iff
``m.span[1] + merge_gap < tail``.  Finality is monotone: ``tail`` never
decreases, so the final prefix of the merged-event list only grows.

Crash resume: the committed state is ``(watermark, scan_base)`` — the
shot-emission cursor and the start of the first still-pending boundary
run.  Frames are re-fed from ``watermark``; raw events whose run starts
before ``scan_base`` are suppressed, because they are residue of runs
already consumed by committed boundaries (e.g. the tail of a cut run
whose boundary frame is the watermark itself).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.shots.boundary import Boundary, ThresholdCutDetector, TwinComparisonDetector
from repro.shots.segmenter import DetectedShot, SegmentDetector
from repro.vision.histogram import color_histograms

__all__ = ["SegmentChunk", "StreamingSegmenter"]


class StreamingSegmenter:
    """Chunk-incremental shot segmentation, byte-identical to batch.

    Args:
        segmenter: the batch segment detector to mirror; defaults to
            the tennis FDE's twin-comparison configuration.  The
            boundary detector must be a
            :class:`~repro.shots.boundary.TwinComparisonDetector` or a
            fixed-threshold
            :class:`~repro.shots.boundary.ThresholdCutDetector`.
        origin: absolute stream index of the first frame that will be
            pushed (0 for a fresh stream, the committed watermark on
            resume).
        scan_base: suppress raw boundary events whose run starts before
            this absolute index (resume only; defaults to no-op).

    Memory note: the distance series of the current stream epoch is
    retained and re-scanned per push (boundary scans are O(n) on a
    float array — negligible next to histogram extraction); the frame
    buffer is trimmed to the unfinalized tail after every push.
    """

    def __init__(
        self,
        segmenter: SegmentDetector | None = None,
        origin: int = 0,
        scan_base: int | None = None,
    ):
        seg = segmenter or SegmentDetector(boundary_detector=TwinComparisonDetector())
        detector = seg.boundary_detector
        if not isinstance(detector, (TwinComparisonDetector, ThresholdCutDetector)):
            raise TypeError(
                f"unsupported boundary detector {type(detector).__name__}; "
                "streaming needs TwinComparisonDetector or ThresholdCutDetector"
            )
        self.segmenter = seg
        self.detector = detector
        self._origin = origin
        self._suppress = scan_base if scan_base is not None else origin + 1
        self._distances: list[float] = []
        self._frames: list = []
        self._frames_base = origin
        self._prev_hist: np.ndarray | None = None
        self._n = origin  # absolute index one past the newest frame
        self._cursor = origin  # absolute shot-emission cursor
        self._n_final_merged = 0
        self._scan_base = origin + 1  # absolute; updated per drain

    # -- state ---------------------------------------------------------- #

    @property
    def watermark(self) -> int:
        """Absolute resume point: frames below it are fully decided."""
        return self._cursor

    @property
    def frames_seen(self) -> int:
        """Absolute index one past the newest pushed frame."""
        return self._n

    @property
    def scan_base(self) -> int:
        """Absolute start of the first still-pending boundary run."""
        return self._scan_base

    def fork(self) -> "StreamingSegmenter":
        """An independent copy: pushing into it leaves this one as it was."""
        twin = object.__new__(StreamingSegmenter)
        twin.__dict__.update(self.__dict__)
        twin._distances = list(self._distances)
        twin._frames = list(self._frames)
        return twin

    # -- ingest --------------------------------------------------------- #

    def push(self, frames, start: int | None = None) -> list[tuple[DetectedShot, list]]:
        """Ingest consecutive frames; return newly-final shots.

        Each element is ``(shot, frames)`` — the classified shot plus
        its frames (needed downstream for player tracking; the internal
        buffer is trimmed as shots finalise).  *start* is the absolute
        index of ``frames[0]`` (default: the next frame); past it, the
        frames in between were dropped and :meth:`gap` runs first, its
        tail shots leading the returned list."""
        shots = [] if start is None or start == self._n else self.gap(start)
        frames = list(frames)
        if not frames:
            return shots
        hists = color_histograms(frames, bins=self.detector.bins)
        fresh = np.zeros(len(frames))
        if self._prev_hist is not None:
            fresh[0] = np.abs(hists[0] - self._prev_hist).sum() / 2.0
        if len(frames) > 1:
            fresh[1:] = np.abs(np.diff(hists, axis=0)).sum(axis=1) / 2.0
        self._prev_hist = hists[-1]
        self._distances.extend(float(d) for d in fresh)
        self._frames.extend(frames)
        self._n += len(frames)
        return shots + self._drain(final=False)

    def finalize(self) -> list[tuple[DetectedShot, list]]:
        """End of stream: flush every pending boundary + the tail shot."""
        shots = self._drain(final=True)
        if self._cursor < self._n:
            shots.extend(self._classify(self._cursor, self._n))
            self._cursor = self._n
        self._release()
        return shots

    def gap(self, new_start: int) -> list[tuple[DetectedShot, list]]:
        """Shed recovery: finalise at the last ingested frame, then
        restart the boundary state at *new_start* (frames in between
        were dropped; batch identity is forfeited for this stream)."""
        if new_start < self._n:
            raise ValueError(f"gap target {new_start} precedes ingested frames ({self._n})")
        shots = self.finalize()
        self._origin = new_start
        self._suppress = new_start + 1
        self._distances = []
        self._frames = []
        self._frames_base = new_start
        self._prev_hist = None
        self._n = new_start
        self._cursor = new_start
        self._n_final_merged = 0
        self._scan_base = new_start + 1
        return shots

    # -- internals ------------------------------------------------------ #

    def _raw_events(self, arr: np.ndarray) -> list[Boundary]:
        if isinstance(self.detector, TwinComparisonDetector):
            raw = self.detector._raw_events(arr)
        else:
            raw = self.detector._from_distances(arr)
        if self._suppress > self._origin + 1:
            raw = [b for b in raw if b.frame + self._origin >= self._suppress]
        return raw

    def _tail_start(self, arr: np.ndarray) -> int:
        """Relative start of the regime run still open at the end."""
        n = len(arr)
        if n <= 1:
            return n
        last = arr[n - 1]
        detector = self.detector
        if isinstance(detector, TwinComparisonDetector):
            if last > detector.high:
                def in_regime(d):
                    return d > detector.high
            elif last > detector.low:
                def in_regime(d):
                    return detector.low < d <= detector.high
            else:
                return n
        else:
            if last > detector.threshold:
                def in_regime(d):
                    return d > detector.threshold
            else:
                return n
        i = n - 1
        while i >= 1 and in_regime(arr[i]):
            i -= 1
        return i + 1

    def _drain(self, final: bool) -> list[tuple[DetectedShot, list]]:
        arr = np.asarray(self._distances)
        raw = self._raw_events(arr)
        # Each merged boundary with its last raw constituent (for scan_base).
        if isinstance(self.detector, TwinComparisonDetector):
            merged = self.detector._merge(raw)
        else:
            merged = [(event, i) for i, event in enumerate(raw)]
        tail = self._tail_start(arr)
        gap = getattr(self.detector, "merge_gap", 0) or 0
        if final:
            n_final = len(merged)
        else:
            n_final = 0
            for boundary, _ in merged:
                if boundary.span[1] + gap < tail:
                    n_final += 1
                else:
                    break
        shots: list[tuple[DetectedShot, list]] = []
        for boundary, _ in merged[self._n_final_merged : n_final]:
            span_start, span_stop = boundary.span
            if boundary.kind == "cut":
                span_stop = span_start
            abs_start = span_start + self._origin
            abs_stop = span_stop + self._origin
            if abs_start > self._cursor:
                shots.extend(self._classify(self._cursor, abs_start))
            self._cursor = max(self._cursor, abs_stop)
        self._n_final_merged = n_final
        # Recompute scan_base: first raw event not consumed by the final
        # prefix, bounded by the open tail run.
        consumed = merged[n_final - 1][1] + 1 if n_final else 0
        pending_start = raw[consumed].frame if consumed < len(raw) else tail
        self._scan_base = min(pending_start, tail) + self._origin
        self._release()
        return shots

    def _classify(self, start: int, stop: int) -> list[tuple[DetectedShot, list]]:
        if stop - start < self.segmenter.min_shot_length:
            return []
        lo = start - self._frames_base
        hi = stop - self._frames_base
        frames = self._frames[lo:hi]
        features = self.segmenter.extractor.extract(frames)
        category = self.segmenter.classifier.classify(features)
        shot = DetectedShot(start=start, stop=stop, category=category, features=features)
        return [(shot, frames)]

    def _release(self) -> None:
        drop = self._cursor - self._frames_base
        if drop > 0:
            del self._frames[:drop]
            self._frames_base = self._cursor


@dataclass
class SegmentChunk:
    """The ``video`` token as the ``segment`` detector reads it.

    Attributes:
        name: the stream (video) name.
        start: absolute index of ``frames[0]``.
        frames: the chunk's frames.
        final: the last chunk: the tail shot is flushed.
        segmenter: the stream's segmenter before this chunk; ``segment``
            pushes into a :meth:`~StreamingSegmenter.fork` of it, so a
            failed attempt leaves it as it was.
        advanced: the fork after a successful ``segment`` run, for the
            stream to adopt (``None`` until then).
        shot_frames: the frames of the shots that run emitted, keyed by
            shot start, for ``tennis`` to track (a shot may span earlier
            chunks).  Safe to hold: the chunk is the axiom token, which
            no cache keeps, so they go when the chunk's commit ends.
    """

    name: str
    start: int
    frames: Sequence
    final: bool
    segmenter: StreamingSegmenter
    advanced: StreamingSegmenter | None = None
    shot_frames: dict[int, list] = field(default_factory=dict)

    @classmethod
    def of(cls, token, segmenter: SegmentDetector) -> "SegmentChunk":
        """*token* as a chunk: a stream's chunk is itself; a clip is the
        final chunk of a fresh segmenter mirroring *segmenter*."""
        if isinstance(token, cls):
            return token
        return cls(token.name, 0, token, True, StreamingSegmenter(segmenter))
