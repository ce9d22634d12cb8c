"""Frame-level statistics: entropy, mean, variance.

The paper classifies shots using "entropy characteristics, mean and
variance" in addition to dominant colour and skin ratio.  These are the
corresponding primitives, computed on the greyscale rendering of a frame.
"""

from __future__ import annotations

import numpy as np

from repro.vision.color import frame_colours, rgb_to_grey
from repro.vision.histogram import grey_histogram

__all__ = [
    "frame_entropy",
    "frame_mean",
    "frame_variance",
    "frame_statistics",
    "frame_statistics_batch",
]


def _as_grey(image: np.ndarray) -> np.ndarray:
    arr = np.asarray(image)
    if arr.ndim == 3:
        return rgb_to_grey(arr)
    if arr.ndim == 2:
        return arr
    raise ValueError(f"expected an image array, got shape {arr.shape}")


def frame_entropy(image: np.ndarray, bins: int = 64) -> float:
    """Shannon entropy (bits) of the greyscale intensity distribution.

    Low for flat shots (empty court walls, uniform graphics), high for
    textured shots (audience).  Range is ``[0, log2(bins)]``.
    """
    hist = grey_histogram(_as_grey(image), bins=bins, normalize=True)
    positive = hist[hist > 0]
    if positive.size == 0:
        return 0.0
    return float(-(positive * np.log2(positive)).sum())


def frame_mean(image: np.ndarray) -> float:
    """Mean greyscale intensity of the frame (0..255)."""
    return float(_as_grey(image).mean())


def frame_variance(image: np.ndarray) -> float:
    """Variance of greyscale intensity of the frame."""
    return float(_as_grey(image).astype(np.float64).var())


def frame_statistics(image: np.ndarray, bins: int = 64) -> dict[str, float]:
    """Entropy, mean and variance in one pass over the greyscale frame."""
    grey = _as_grey(image)
    hist = grey_histogram(grey, bins=bins, normalize=True)
    positive = hist[hist > 0]
    entropy = float(-(positive * np.log2(positive)).sum()) if positive.size else 0.0
    as_float = grey.astype(np.float64)
    return {
        "entropy": entropy,
        "mean": float(as_float.mean()),
        "variance": float(as_float.var()),
    }


def frame_statistics_batch(frames, bins: int = 64) -> list[dict[str, float]]:
    """Batched :func:`frame_statistics` over a clip or a shared frame block.

    Each frame's grey is its shared ``FrameColour.grey`` — the luma
    matmul of :func:`~repro.vision.color.rgb_to_grey`, computed once per
    frame — reduced by :func:`frame_statistics` itself, so every value
    matches the single-frame function exactly.
    """
    return [frame_statistics(colour.grey, bins) for colour in frame_colours(frames)]
