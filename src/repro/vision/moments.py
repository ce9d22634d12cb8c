"""Geometric moments and shape features of binary regions.

The tennis detector extracts, for the segmented player's binary
representation, "the mass center, the area, the bounding box, the
orientation, and the eccentricity" — exactly the central-moment shape
descriptors implemented here.

Coordinates follow image convention: ``row`` (y, downwards) and ``col``
(x, rightwards).  Orientation is the angle in radians of the major axis
measured from the positive column (x) axis, in ``(-pi/2, pi/2]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeFeatures",
    "shape_features",
]


@dataclass(frozen=True)
class ShapeFeatures:
    """Shape descriptors of a binary region.

    Attributes:
        area: pixel count of the region.
        centroid: ``(row, col)`` mass centre.
        bbox: ``(row_min, col_min, row_max, col_max)`` half-open bounds.
        orientation: major-axis angle in radians from the x (column) axis.
        eccentricity: 0 for a circle, ->1 for an elongated region.
        aspect_ratio: bbox height / bbox width.
    """

    area: int
    centroid: tuple[float, float]
    bbox: tuple[int, int, int, int]
    orientation: float
    eccentricity: float
    aspect_ratio: float

    def as_vector(self) -> np.ndarray:
        """Flatten to a feature vector (for classifiers / the meta-index)."""
        return np.array(
            [
                self.area,
                self.centroid[0],
                self.centroid[1],
                *self.bbox,
                self.orientation,
                self.eccentricity,
                self.aspect_ratio,
            ],
            dtype=np.float64,
        )


def _features_from_points(rows: np.ndarray, cols: np.ndarray) -> ShapeFeatures:
    """Shape descriptors from the true-pixel coordinates of one region.

    The coordinate arrays must come from ``np.nonzero`` on a 2-D mask
    (row-major order) — :func:`shape_features` and the tracker's
    window-local path funnel through here, so their outputs are identical
    by construction.
    """
    area = int(rows.size)
    r_mean = float(rows.mean())
    c_mean = float(cols.mean())
    bbox = (int(rows.min()), int(cols.min()), int(rows.max()) + 1, int(cols.max()) + 1)

    r = rows.astype(np.float64)
    c = cols.astype(np.float64)
    dr = r - r.mean()
    dc = c - c.mean()
    # Normalised second central moments (per-pixel).
    u20 = float(np.sum(dr * dr)) / area
    u02 = float(np.sum(dc * dc)) / area
    u11 = float(np.sum(dr * dc)) / area

    # Orientation of the major axis relative to the column (x) axis.  The
    # covariance matrix here is over (row, col); converting to (x, y) with
    # y pointing up flips the sign of the cross term.
    if abs(u20 - u02) < 1e-12 and abs(u11) < 1e-12:
        orientation = 0.0
    else:
        orientation = 0.5 * np.arctan2(2.0 * u11, u02 - u20)

    # Eigenvalues of the covariance matrix give the axis lengths.
    common = np.sqrt(max((u20 - u02) ** 2 / 4.0 + u11**2, 0.0))
    lam1 = (u20 + u02) / 2.0 + common
    lam2 = (u20 + u02) / 2.0 - common
    if lam1 <= 1e-12:
        eccentricity = 0.0
    else:
        ratio = max(lam2, 0.0) / lam1
        eccentricity = float(np.sqrt(max(1.0 - ratio, 0.0)))

    height = bbox[2] - bbox[0]
    width = bbox[3] - bbox[1]
    aspect = float(height) / float(width) if width else float("inf")

    return ShapeFeatures(
        area=area,
        centroid=(r_mean, c_mean),
        bbox=bbox,
        orientation=float(orientation),
        eccentricity=eccentricity,
        aspect_ratio=aspect,
    )


def shape_features(mask: np.ndarray) -> ShapeFeatures | None:
    """Extract :class:`ShapeFeatures` from a binary mask.

    Returns ``None`` for an empty mask (no region to describe).
    """
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {arr.shape}")
    rows, cols = np.nonzero(arr)
    if rows.size == 0:
        return None
    return _features_from_points(rows, cols)
