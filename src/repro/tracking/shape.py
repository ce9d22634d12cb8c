"""Per-frame player observations: shape features + dominant colour.

"Besides the player's position, we extract the dominant color, and
standard shape features such as the mass center, the area, the bounding
box, the orientation, and the eccentricity."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vision.moments import ShapeFeatures, _features_from_points
from repro.vision.regions import Region

__all__ = ["PlayerObservation", "observe_player"]


@dataclass(frozen=True)
class PlayerObservation:
    """Everything extracted about the player in one frame.

    Attributes:
        position: blob centroid ``(row, col)`` — the tracked position.
        shape: central-moment shape features of the blob.
        dominant_color: mean RGB of the blob pixels (the player's kit
            colour; the paper stores it as a per-player feature).
    """

    position: tuple[float, float]
    shape: ShapeFeatures
    dominant_color: tuple[float, float, float]


def observe_player(
    frame: np.ndarray,
    mask: np.ndarray,
    region: Region,
    origin: tuple[int, int] = (0, 0),
) -> PlayerObservation:
    """Build a :class:`PlayerObservation` for a segmented player *region*.

    Only the region's bounding box is read: its true pixels, offset back
    to frame coordinates, are the coordinate arrays a whole-frame
    ``np.nonzero`` would give (same values, same row-major order).

    Args:
        frame: the RGB frame.
        mask: the cleaned not-court mask the region was found in — the
            whole frame's, or a crop of it.
        region: the player blob (frame coordinates).
        origin: frame position of ``mask[0, 0]`` when *mask* is a crop.
    """
    r0, c0, r1, c1 = region.bbox
    rows, cols = np.nonzero(mask[r0 - origin[0] : r1 - origin[0], c0 - origin[1] : c1 - origin[1]])
    if rows.size == 0:
        raise ValueError("player region produced an empty mask")
    rows += r0
    cols += c0
    shape = _features_from_points(rows, cols)
    color = frame[rows, cols].mean(axis=0)
    return PlayerObservation(
        position=shape.centroid,
        shape=shape,
        dominant_color=(float(color[0]), float(color[1]), float(color[2])),
    )
