"""Colour histograms and the histogram difference.

The paper's segment detector finds shot boundaries "using differences in
color histograms of neighboring frames".  This module provides the
histograms and the distance measure the boundary detector (and the shot
classifier) consume.
"""

from __future__ import annotations

import numpy as np

from repro.vision.color import (
    FRAME_BLOCK,
    _hsv_from_rgb_array,
    ensure_frames,
    ensure_rgb,
    frame_colours,
    rgb_to_hsv,
)

__all__ = [
    "color_histogram",
    "color_histograms",
    "hsv_histogram",
    "hsv_histograms",
    "grey_histogram",
    "histogram_difference",
]


def _count_rows(codes: np.ndarray, n_cells: int, out: np.ndarray, at: int) -> None:
    """Bincount each frame of a ``(m, H, W)`` code block into ``out[at:]``.

    Counting is per frame — a 12k-element bincount is cache-resident and
    beats one huge offset bincount on memory-constrained hosts.
    """
    flat = codes.reshape(codes.shape[0], -1)
    for j in range(flat.shape[0]):
        out[at + j] = np.bincount(flat[j], minlength=n_cells)


def _normalize_rows(hists: np.ndarray, normalize: bool) -> np.ndarray:
    if normalize:
        totals = hists.sum(axis=1)
        positive = totals > 0
        hists[positive] /= totals[positive, np.newaxis]
    return hists


def color_histogram(image: np.ndarray, bins: int = 8, normalize: bool = True) -> np.ndarray:
    """Joint RGB colour histogram.

    Each channel is quantised into *bins* levels, producing a flattened
    ``bins**3`` vector.  With ``normalize=True`` (the default) the histogram
    sums to 1 so that frames of different sizes are comparable.

    Args:
        image: ``(H, W, 3)`` uint8 RGB frame.
        bins: quantisation levels per channel (2..256).
        normalize: return frequencies instead of counts.

    Returns:
        float64 vector of length ``bins**3``.
    """
    if not 2 <= bins <= 256:
        raise ValueError(f"bins must be in 2..256, got {bins}")
    rgb = ensure_rgb(image)
    # Quantise each channel to 0..bins-1 and combine into a single code.
    quant = (rgb.astype(np.uint32) * bins) >> 8
    codes = (quant[..., 0] * bins + quant[..., 1]) * bins + quant[..., 2]
    hist = np.bincount(codes.ravel(), minlength=bins**3).astype(np.float64)
    if normalize:
        total = hist.sum()
        if total > 0:
            hist /= total
    return hist


def color_histograms(frames, bins: int = 8, normalize: bool = True) -> np.ndarray:
    """Batched :func:`color_histogram` over a clip or a shared frame block.

    *frames* is anything :func:`~repro.vision.color.frame_colours` takes.
    Returns an ``(N, bins**3)`` float64 array where row *i* equals
    ``color_histogram(frames[i], bins, normalize)`` exactly: each row is
    the frame's integer cell counts (``FrameColour.counts`` — for
    ``bins`` dividing 16 a fold of the shared 16-level counts, since every
    coarse cell is an exact union of fine ones), divided by their sum.
    """
    if not 2 <= bins <= 256:
        raise ValueError(f"bins must be in 2..256, got {bins}")
    rows = [colour.counts(bins) for colour in frame_colours(frames)]
    hists = np.array(rows, dtype=np.float64).reshape(len(rows), bins**3)
    return _normalize_rows(hists, normalize)


def hsv_histogram(image: np.ndarray, bins: int = 8, normalize: bool = True) -> np.ndarray:
    """Joint HSV colour histogram (hue/saturation/value quantised).

    Hue is perceptually dominant, so HSV binning is less sensitive to
    global brightness shifts than RGB — the colour-space ablation of E2a.
    """
    if not 2 <= bins <= 256:
        raise ValueError(f"bins must be in 2..256, got {bins}")
    hsv = rgb_to_hsv(image)
    h = np.minimum((hsv[..., 0] / 360.0 * bins).astype(np.uint32), bins - 1)
    s = np.minimum((hsv[..., 1] * bins).astype(np.uint32), bins - 1)
    v = np.minimum((hsv[..., 2] * bins).astype(np.uint32), bins - 1)
    codes = (h * bins + s) * bins + v
    hist = np.bincount(codes.ravel(), minlength=bins**3).astype(np.float64)
    if normalize:
        total = hist.sum()
        if total > 0:
            hist /= total
    return hist


def hsv_histograms(frames, bins: int = 8, normalize: bool = True) -> np.ndarray:
    """Batched :func:`hsv_histogram` over a whole clip -> ``(N, bins**3)``.

    The HSV conversion runs block-at-a-time so the float conversion of a
    long clip is never materialised whole.
    """
    if not 2 <= bins <= 256:
        raise ValueError(f"bins must be in 2..256, got {bins}")
    rgb = ensure_frames(frames)
    n = rgb.shape[0]
    hists = np.empty((n, bins**3), dtype=np.float64)
    for start in range(0, n, FRAME_BLOCK):
        part = rgb[start : start + FRAME_BLOCK]
        hsv = _hsv_from_rgb_array(part.astype(np.float64) / 255.0)
        h = np.minimum((hsv[..., 0] / 360.0 * bins).astype(np.uint32), bins - 1)
        s = np.minimum((hsv[..., 1] * bins).astype(np.uint32), bins - 1)
        v = np.minimum((hsv[..., 2] * bins).astype(np.uint32), bins - 1)
        codes = (h * bins + s) * bins + v
        _count_rows(codes, bins**3, hists, start)
    return _normalize_rows(hists, normalize)


def grey_histogram(grey: np.ndarray, bins: int = 64, normalize: bool = True) -> np.ndarray:
    """Histogram of a greyscale image with *bins* uniform buckets over 0..255."""
    if not 2 <= bins <= 256:
        raise ValueError(f"bins must be in 2..256, got {bins}")
    arr = np.asarray(grey)
    if arr.ndim != 2:
        raise ValueError(f"expected an (H, W) greyscale image, got shape {arr.shape}")
    codes = (arr.astype(np.uint32) * bins) >> 8
    hist = np.bincount(codes.ravel(), minlength=bins).astype(np.float64)
    if normalize:
        total = hist.sum()
        if total > 0:
            hist /= total
    return hist


def _check_pair(h1: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(h1, dtype=np.float64)
    b = np.asarray(h2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"histogram shapes differ: {a.shape} vs {b.shape}")
    return a, b


def histogram_difference(h1: np.ndarray, h2: np.ndarray) -> float:
    """L1 distance between two histograms, halved.

    For normalised histograms the result lies in ``[0, 1]``: 0 for identical
    frames, 1 for frames with disjoint colour content.  This is the measure
    the shot-boundary detector thresholds.
    """
    a, b = _check_pair(h1, h2)
    return float(np.abs(a - b).sum() / 2.0)
