"""Player segmentation from court colour statistics.

The "initial quadratic segmentation": the near half of the court (the
quadrant the broadcast tracks) is segmented into court / not-court using
the estimated colour statistics; thin structures (court lines, the net
band) are removed by a morphological opening, and the largest remaining
blob is the player.

Every step is local — classification is per pixel, the opening reads a
fixed neighbourhood and reads outside the crop as background
(:mod:`repro.vision.morphology`) — so :func:`segment_area` cleans any
rectangle of the frame from that rectangle plus a halo, bit-equal to the
same rectangle of the cleaned whole frame.  The tracker's window search, its near-half
(re-)acquisition and :func:`initial_player_region` are all callers of it.
"""

from __future__ import annotations

import numpy as np

from repro.tracking.court_model import CourtColorModel
from repro.vision.morphology import closing, opening
from repro.vision.regions import Region, regions_in

__all__ = [
    "not_court_mask",
    "clean_mask",
    "court_bounds",
    "restrict_to_bounds",
    "segment_area",
    "initial_player_region",
    "SearchWindow",
]

Box = tuple[int, int, int, int]  # (row_min, col_min, row_max, col_max), half-open


def court_bounds(
    frame: np.ndarray, model: CourtColorModel, k: float = 4.0, inset: int = 2
) -> tuple[int, int, int, int] | None:
    """Bounding box of the court surface in the frame.

    The largest court-coloured region is the playing surface; its bounding
    box (shrunk by *inset* pixels to drop the boundary lines) bounds every
    player search.  Returns ``(row_min, col_min, row_max, col_max)`` or
    ``None`` when no court region exists.
    """
    court = model.is_court(frame, k=k)
    # Court lines and the net band carve the surface into panels; a
    # closing bridges those thin gaps so the surface is one region.
    court = closing(court, size=5)
    regions = regions_in(court, min_area=64)
    if not regions:
        return None
    surface = max(regions, key=lambda r: r.area)
    r0, c0, r1, c1 = surface.bbox
    r0, c0 = r0 + inset, c0 + inset
    r1, c1 = r1 - inset, c1 - inset
    if r0 >= r1 or c0 >= c1:
        return None
    return r0, c0, r1, c1


def not_court_mask(
    frame: np.ndarray, model: CourtColorModel, k: float = 4.0
) -> np.ndarray:
    """Boolean mask of pixels that are NOT court-coloured."""
    return ~model.is_court(frame, k=k)


def clean_mask(mask: np.ndarray, open_size: int = 3) -> np.ndarray:
    """Remove thin line/net structures from a not-court mask."""
    return opening(mask, size=open_size)


class SearchWindow:
    """An axis-aligned search window, clipped to the frame.

    Args:
        centre: ``(row, col)`` centre of the window.
        half_size: half the window side length in pixels.
        shape: frame shape ``(H, W)`` used for clipping.
    """

    def __init__(self, centre: tuple[float, float], half_size: int, shape: tuple[int, int]):
        if half_size < 1:
            raise ValueError(f"half_size must be >= 1, got {half_size}")
        h, w = shape
        row, col = centre
        self.row_min = max(0, int(row - half_size))
        self.row_max = min(h, int(row + half_size) + 1)
        self.col_min = max(0, int(col - half_size))
        self.col_max = min(w, int(col + half_size) + 1)

    @property
    def empty(self) -> bool:
        return self.row_min >= self.row_max or self.col_min >= self.col_max

    @property
    def area(self) -> Box:
        """The window as ``(row_min, col_min, row_max, col_max)``."""
        return self.row_min, self.col_min, self.row_max, self.col_max

    def crop(self, array: np.ndarray) -> np.ndarray:
        """Slice *array* (2-D or 3-D) to the window."""
        return array[self.row_min : self.row_max, self.col_min : self.col_max]

    def to_frame(self, region: Region) -> Region:
        """Translate a region found in window coordinates back to the frame."""
        return region.shifted(self.row_min, self.col_min)


def restrict_to_bounds(mask: np.ndarray, bounds: Box) -> np.ndarray:
    """Zero a mask outside ``(row_min, col_min, row_max, col_max)``."""
    r0, c0, r1, c1 = (max(0, b) for b in bounds)
    restricted = np.zeros_like(mask)
    restricted[r0:r1, c0:c1] = mask[r0:r1, c0:c1]
    return restricted


def segment_area(
    frame: np.ndarray, is_court, area: Box, bounds: Box, open_size: int = 3
) -> np.ndarray:
    """Cleaned not-court mask of *area*, zeroed outside *bounds*.

    Equal, bit for bit, to ``restrict_to_bounds(opening(~is_court(frame)),
    bounds)`` sliced to *area*, at the cost of the area alone: an opened
    pixel depends on the raw mask within ``open_size - 1`` pixels of it,
    so classifying and opening the area plus an ``open_size`` halo
    (clipped to the frame) decides every pixel of the area.  Where the
    halo is clipped the crop edge *is* the frame edge, and the opening's
    outside-is-background rule is the one the whole frame had.
    Order matters and is kept: open first, restrict second.

    Args:
        frame: the RGB frame.
        is_court: per-pixel classifier, RGB crop -> boolean court mask
            (e.g. ``model.is_court``).
        area: ``(row_min, col_min, row_max, col_max)`` inside the frame.
        bounds: court bounds in frame coordinates.
        open_size: structuring element of the cleaning opening.

    Returns:
        A boolean mask of the area's shape (``mask[0, 0]`` is the frame's
        ``[row_min, col_min]``).
    """
    r0, c0, r1, c1 = area
    h, w = frame.shape[:2]
    if not (0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w):
        raise ValueError(f"invalid area {area} for frame {h}x{w}")
    top, left = max(0, r0 - open_size), max(0, c0 - open_size)
    crop = frame[top : min(h, r1 + open_size), left : min(w, c1 + open_size)]
    cleaned = clean_mask(~is_court(crop), open_size=open_size)
    b0, d0, b1, d1 = bounds
    return restrict_to_bounds(
        cleaned[r0 - top : r1 - top, c0 - left : c1 - left], (b0 - r0, d0 - c0, b1 - r0, d1 - c0)
    )


def initial_player_region(
    frame: np.ndarray,
    model: CourtColorModel,
    bounds: tuple[int, int, int, int],
    k: float = 4.0,
    min_area: int = 12,
    open_size: int = 3,
) -> Region | None:
    """Find the player blob inside *bounds* (the near court half).

    Args:
        frame: first frame of the playing shot.
        model: estimated court colour statistics.
        bounds: ``(row_min, col_min, row_max, col_max)`` search area —
            the near half of the court surface.
        k: court-colour threshold in scaled stds.
        min_area: smallest blob accepted as a player (rejects residue the
            opening missed).
        open_size: structuring element of the cleaning opening.

    Returns:
        The largest qualifying region in frame coordinates, or ``None``.
    """
    mask = segment_area(frame, lambda rgb: model.is_court(rgb, k=k), bounds, bounds, open_size)
    regions = regions_in(mask, min_area=min_area)
    if not regions:
        return None
    return max(regions, key=lambda r: r.area).shifted(bounds[0], bounds[1])
