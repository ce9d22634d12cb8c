"""Colour space conversions.

The shot classifier works on RGB statistics, dominant colours are more
stable in HSV, and the boundary detector and entropy work on greyscale.
Conversions follow the standard ITU-R BT.601 luma weights and the usual
hexcone HSV model, matching what the paper's 2002-era tooling (and
OpenCV today) computes.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "rgb_to_grey",
    "rgb_to_hsv",
    "hsv_to_rgb",
    "ensure_rgb",
    "ensure_frames",
    "FRAME_BLOCK",
    "FrameColour",
    "FrameBlock",
    "frame_colours",
]

#: ITU-R BT.601 luma weights used for RGB -> greyscale.
_LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])

#: Frames per block in the batched kernels.  Batched passes iterate the
#: clip in blocks of this many frames: large enough to amortise dispatch
#: overhead, small enough that a block's float temporaries stay resident
#: in cache instead of streaming clip-sized arrays through main memory
#: (measured fastest on memory-constrained hosts).
FRAME_BLOCK = 2

#: Levels per channel of the shared joint colour code: the dominant
#: colour's quantisation, and a refinement of every coarser power-of-two
#: histogram (``(v*16 >> 8) >> k == v*2**(4-k) >> 8``).
CODE_LEVELS = 16


def ensure_rgb(image: np.ndarray) -> np.ndarray:
    """Validate that *image* is an ``(H, W, 3)`` array and return it.

    Raises:
        ValueError: if the array does not look like an RGB image.
    """
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) RGB image, got shape {arr.shape}")
    return arr


def ensure_frames(frames) -> np.ndarray:
    """Coerce a clip / frame sequence / array to an ``(N, H, W, 3)`` array.

    Accepts a :class:`~repro.video.frames.VideoClip` (uses its cached
    stacked array), an already-stacked 4-D array, or any sequence of
    ``(H, W, 3)`` frames.

    Raises:
        ValueError: if the input does not describe a batch of RGB frames.
    """
    as_array = getattr(frames, "as_array", None)
    if callable(as_array):
        return as_array()
    arr = np.asarray(frames) if isinstance(frames, np.ndarray) else None
    if arr is None:
        arr = np.stack([np.asarray(f) for f in frames]) if len(frames) else np.empty((0, 1, 1, 3))
    if arr.ndim == 3 and arr.shape[-1] == 3:
        arr = arr[np.newaxis]
    if arr.ndim != 4 or arr.shape[-1] != 3:
        raise ValueError(f"expected (N, H, W, 3) RGB frames, got shape {arr.shape}")
    return arr


def rgb_to_grey(image: np.ndarray) -> np.ndarray:
    """Convert an RGB image to a ``uint8`` greyscale image.

    Args:
        image: ``(H, W, 3)`` array, any numeric dtype in the 0..255 range.

    Returns:
        ``(H, W)`` ``uint8`` array of luma values.
    """
    rgb = ensure_rgb(image).astype(np.float64)
    grey = rgb @ _LUMA_WEIGHTS
    return np.clip(np.rint(grey), 0, 255).astype(np.uint8)


@lru_cache(maxsize=None)
def _fold_map(bins: int) -> np.ndarray:
    """The *bins*-level cell of each :data:`CODE_LEVELS`-level code (read-only)."""
    level = np.arange(CODE_LEVELS) // (CODE_LEVELS // bins)
    cells = ((level[:, None, None] * bins + level[None, :, None]) * bins + level).ravel()
    cells.flags.writeable = False
    return cells


class FrameColour:
    """One frame's colour evidence, each piece computed on first use.

    :attr:`planes` is the frame as contiguous ``(3, H*W)`` channel planes;
    :meth:`codes` / :meth:`counts` are its joint colour codes and exact
    per-cell pixel counts — for *bins* dividing :data:`CODE_LEVELS` a fold
    of the 16-level counts, not another pass over the pixels; :attr:`grey`
    is :func:`rgb_to_grey` (the BLAS luma matmul: a planar weighted sum
    rounds some pixels differently).
    """

    def __init__(self, frame: np.ndarray):
        self.frame = ensure_rgb(frame)
        self._codes: dict[int, np.ndarray] = {}
        self._counts: dict[int, np.ndarray] = {}

    @cached_property
    def planes(self) -> np.ndarray:
        return np.ascontiguousarray(self.frame.reshape(-1, 3).T)

    @cached_property
    def grey(self) -> np.ndarray:
        return rgb_to_grey(self.frame)

    def codes(self, bins: int = CODE_LEVELS) -> np.ndarray:
        """Per pixel ``((r*bins >> 8) * bins + (g*bins >> 8)) * bins + (b*bins >> 8)``."""
        if bins not in self._codes:
            # uint16 holds v*bins and every code while bins**3 < 2**16.
            quant = self.planes.astype(np.uint16 if bins <= 40 else np.uint32)
            quant *= bins
            quant >>= 8
            codes = quant[0] * bins
            codes += quant[1]
            codes *= bins
            codes += quant[2]
            self._codes[bins] = codes
        return self._codes[bins]

    def counts(self, bins: int = CODE_LEVELS) -> np.ndarray:
        """Pixels per joint colour cell at *bins* levels, as float64."""
        if bins not in self._counts:
            if bins != CODE_LEVELS and CODE_LEVELS % bins == 0:
                counts = np.bincount(_fold_map(bins), weights=self.counts(), minlength=bins**3)
            else:
                counts = np.bincount(self.codes(bins), minlength=bins**3).astype(np.float64)
            self._counts[bins] = counts
        return self._counts[bins]


class FrameBlock:
    """A few frames whose :class:`FrameColour` state the colour kernels share.

    Pass one block to ``color_histograms``, ``dominant_colors``,
    ``color_coverages``, ``SkinColorModel.masks`` / ``ratios`` and
    ``frame_statistics_batch``: each frame is decomposed, coded, counted
    and turned grey once, however many of them read it.
    """

    def __init__(self, frames):
        self.colours = [FrameColour(frame) for frame in frames]


def frame_colours(frames):
    """A :class:`FrameBlock`'s shared states, else fresh ones, one frame at a time.

    Takes a block, a clip, an ``(N, H, W, 3)`` array, a frame sequence or
    one ``(H, W, 3)`` frame; a long clip's states are never all alive.
    """
    if isinstance(frames, FrameBlock):
        return frames.colours
    if isinstance(frames, np.ndarray) and frames.ndim == 3:
        frames = frames[np.newaxis]
    return map(FrameColour, frames)


def _hsv_from_rgb_array(rgb: np.ndarray) -> np.ndarray:
    """Hexcone HSV of a float RGB array in [0, 1]; shape-preserving."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = rgb.max(axis=-1)
    minc = rgb.min(axis=-1)
    delta = maxc - minc

    hue = np.zeros_like(maxc)
    nonzero = delta > 0
    # Piecewise hue computation; np.where keeps it vectorised.
    rmax = nonzero & (maxc == r)
    gmax = nonzero & (maxc == g) & ~rmax
    bmax = nonzero & ~rmax & ~gmax
    with np.errstate(divide="ignore", invalid="ignore"):
        hue[rmax] = ((g - b)[rmax] / delta[rmax]) % 6.0
        hue[gmax] = (b - r)[gmax] / delta[gmax] + 2.0
        hue[bmax] = (r - g)[bmax] / delta[bmax] + 4.0
    hue *= 60.0

    saturation = np.zeros_like(maxc)
    vpos = maxc > 0
    saturation[vpos] = delta[vpos] / maxc[vpos]

    return np.stack([hue, saturation, maxc], axis=-1)


def rgb_to_hsv(image: np.ndarray) -> np.ndarray:
    """Convert ``uint8`` RGB to float HSV.

    Returns:
        ``(H, W, 3)`` float64 array with hue in ``[0, 360)`` degrees and
        saturation / value in ``[0, 1]``.
    """
    return _hsv_from_rgb_array(ensure_rgb(image).astype(np.float64) / 255.0)


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """Convert float HSV (hue degrees, sat/val in 0..1) to ``uint8`` RGB."""
    arr = np.asarray(hsv, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) HSV image, got shape {arr.shape}")
    h = (arr[..., 0] % 360.0) / 60.0
    s = np.clip(arr[..., 1], 0.0, 1.0)
    v = np.clip(arr[..., 2], 0.0, 1.0)

    i = np.floor(h).astype(int) % 6
    f = h - np.floor(h)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))

    # For each sextant pick the (r, g, b) triple.
    choices = [
        (v, t, p),
        (q, v, p),
        (p, v, t),
        (p, q, v),
        (t, p, v),
        (v, p, q),
    ]
    r = np.choose(i, [c[0] for c in choices])
    g = np.choose(i, [c[1] for c in choices])
    b = np.choose(i, [c[2] for c in choices])
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)
