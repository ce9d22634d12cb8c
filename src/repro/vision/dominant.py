"""Dominant-colour estimation.

"The court shots are recognized based on the dominant color" — this module
computes the dominant colour of a frame by histogram mode in quantised RGB
space, and the coverage of an arbitrary reference colour (used both to
recognise the court colour and, by the tracker, to estimate how much of the
frame is court).
"""

from __future__ import annotations

import numpy as np

from repro.vision.color import ensure_rgb, frame_colours

__all__ = [
    "dominant_color",
    "dominant_colors",
    "color_coverage",
    "color_coverages",
]


def dominant_color(image: np.ndarray, bins: int = 16) -> tuple[np.ndarray, float]:
    """Most frequent quantised colour of an RGB frame.

    The frame is quantised to ``bins`` levels per channel; the returned
    colour is the mean RGB of the pixels falling in the most populated cell,
    which is more accurate than the cell centre.

    Returns:
        ``(color, coverage)`` where *color* is a float64 RGB triple and
        *coverage* is the fraction of frame pixels in the winning cell.
    """
    rgb = ensure_rgb(image)
    quant = (rgb.astype(np.uint32) * bins) >> 8
    codes = (quant[..., 0] * bins + quant[..., 1]) * bins + quant[..., 2]
    flat_codes = codes.ravel()
    counts = np.bincount(flat_codes, minlength=bins**3)
    winner = int(counts.argmax())
    member = flat_codes == winner
    pixels = rgb.reshape(-1, 3)[member]
    color = pixels.mean(axis=0) if len(pixels) else np.zeros(3)
    coverage = float(member.mean()) if flat_codes.size else 0.0
    return color.astype(np.float64), coverage


def dominant_colors(frames, bins: int = 16) -> list[tuple[np.ndarray, float]]:
    """Batched :func:`dominant_color` over a clip or a shared frame block.

    Per frame, the winning cell comes from the shared cell counts
    (``FrameColour.counts``) and its pixels' channel sums are exact
    integer sums over the planes, so each ``(color, coverage)`` pair
    matches the single-frame function exactly.
    """
    out: list[tuple[np.ndarray, float]] = []
    for colour in frame_colours(frames):
        counts = colour.counts(bins)
        winner = int(counts.argmax())
        win_count = int(counts[winner])
        if not win_count:
            out.append((np.zeros(3), 0.0))
            continue
        member = colour.codes(bins) == winner
        sums = np.compress(member, colour.planes, axis=1).sum(axis=1)
        out.append((sums / float(win_count), win_count / member.size))
    return out


def color_coverage(
    image: np.ndarray, color: np.ndarray, tolerance: float = 40.0
) -> float:
    """Fraction of pixels within Euclidean *tolerance* of *color*.

    Used to test whether a frame is dominated by a known court colour.
    """
    rgb = ensure_rgb(image).astype(np.float64)
    ref = np.asarray(color, dtype=np.float64).reshape(1, 1, 3)
    dist = np.sqrt(((rgb - ref) ** 2).sum(axis=-1))
    return float((dist <= tolerance).mean())


def _within(planes: np.ndarray, ref: np.ndarray, tolerance: float) -> np.ndarray:
    """:func:`color_coverage`'s per-pixel test on one frame's ``(3, P)`` planes.

    The same float64 operations in the same order — ``(v - ref)**2`` per
    channel, summed left to right, ``sqrt``, ``<= tolerance`` — over a
    frame-sized buffer that stays in cache.
    """
    square = np.subtract(planes, ref[:, np.newaxis])
    square *= square
    total = square[0] + square[1]
    total += square[2]
    return np.sqrt(total, out=total) <= tolerance


def color_coverages(frames, color: np.ndarray, tolerance: float = 40.0) -> np.ndarray:
    """Batched :func:`color_coverage` over a clip or a shared frame block.

    Returns ``(N,)`` float64.  Each frame's shared planes go through
    :func:`_within`, and a coverage is an exact integer count over the
    frame size, so each entry equals the single-frame function bit for bit.
    """
    ref = np.asarray(color, dtype=np.float64).reshape(3)
    out = []
    for colour in frame_colours(frames):
        within = _within(colour.planes, ref, tolerance)
        out.append(np.count_nonzero(within) / within.size if within.size else np.nan)
    return np.array(out, dtype=np.float64)
