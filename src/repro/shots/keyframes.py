"""Keyframe selection.

A retrieved scene is presented by a *keyframe* — the frame that best
represents its shot.  The classic histogram criterion: the keyframe is
the frame whose colour histogram is closest to the shot's mean
histogram (the medoid under L1), which avoids both transition residue
at the edges and unrepresentative action peaks.
"""

from __future__ import annotations

import numpy as np

from repro.video.frames import VideoClip
from repro.vision.histogram import color_histogram, histogram_difference

__all__ = ["keyframe_index"]


def keyframe_index(
    clip: VideoClip, start: int, stop: int, bins: int = 8, sample_step: int = 1
) -> int:
    """Index of the most representative frame of ``clip[start:stop)``.

    Args:
        clip: the video.
        start: first frame of the shot (inclusive).
        stop: one past the last frame.
        bins: histogram quantisation per channel.
        sample_step: consider every ``sample_step``-th frame (cost knob
            for long shots; 1 = exact medoid).

    Returns:
        An absolute frame index in ``[start, stop)``.
    """
    if not 0 <= start < stop <= len(clip):
        raise ValueError(f"invalid shot range [{start}, {stop})")
    if sample_step < 1:
        raise ValueError(f"sample_step must be >= 1, got {sample_step}")
    indices = list(range(start, stop, sample_step))
    histograms = [color_histogram(clip[i], bins=bins) for i in indices]
    mean = np.mean(np.stack(histograms), axis=0)
    distances = [histogram_difference(h, mean) for h in histograms]
    return indices[int(np.argmin(distances))]
