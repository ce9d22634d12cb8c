"""Energy-based word segmentation.

Words are bursts of energy between silences; the segmenter thresholds
short-time energy relative to the utterance's own peak and reports
sample-accurate word segments — the audio counterpart of the video shot
segmenter.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.audio.features import frame_energy
from repro.audio.signal import AudioSignal

__all__ = ["WordSegment", "segment_words"]


@dataclass(frozen=True)
class WordSegment:
    """One detected word span, in samples."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(f"invalid segment [{self.start}, {self.stop})")


def segment_words(
    signal: AudioSignal,
    frame: int = 80,
    hop: int = 40,
    threshold_fraction: float = 0.02,
    min_word_frames: int = 3,
    absolute_floor: float = 1e-8,
) -> list[WordSegment]:
    """Detect word spans from short-time energy.

    Args:
        signal: the utterance.
        frame: energy frame length in samples.
        hop: energy hop in samples.
        threshold_fraction: a frame is "speech" when its energy exceeds
            this fraction of the utterance's peak frame energy.
        min_word_frames: shorter speech runs are discarded as clicks.
        absolute_floor: minimum speech energy — keeps a silent recording
            from segmenting its own noise floor (the relative threshold
            alone would fire on uniformly tiny energy).
    """
    if not 0 < threshold_fraction < 1:
        raise ValueError("threshold_fraction must be in (0, 1)")
    energy = frame_energy(signal.samples, frame=frame, hop=hop)
    if energy.size == 0:
        return []
    threshold = max(float(energy.max()) * threshold_fraction, absolute_floor)
    speech = energy > threshold

    segments: list[WordSegment] = []
    run_start = None
    for i, flag in enumerate(speech):
        if flag and run_start is None:
            run_start = i
        elif not flag and run_start is not None:
            if i - run_start >= min_word_frames:
                segments.append(
                    WordSegment(start=run_start * hop, stop=(i - 1) * hop + frame)
                )
            run_start = None
    if run_start is not None and len(speech) - run_start >= min_word_frames:
        segments.append(
            WordSegment(start=run_start * hop, stop=(len(speech) - 1) * hop + frame)
        )
    return segments
