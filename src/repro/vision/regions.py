"""Connected-component labelling for binary masks.

The player segmentation step produces a binary "not court" mask; the
tracker then needs the connected regions of that mask to find the player
blob.  Labelling uses scipy's optimised implementation; per-region
statistics are NumPy ``bincount`` sums over the label image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["Region", "label_regions", "regions_in"]


@dataclass(frozen=True)
class Region:
    """A connected region of a binary mask.

    Attributes:
        label: label id in the label image (>= 1).
        area: number of pixels.
        bbox: ``(row_min, col_min, row_max, col_max)`` — half-open rows/cols.
        centroid: ``(row, col)`` mean pixel position.
    """

    label: int
    area: int
    bbox: tuple[int, int, int, int]
    centroid: tuple[float, float]

    @property
    def height(self) -> int:
        return self.bbox[2] - self.bbox[0]

    @property
    def width(self) -> int:
        return self.bbox[3] - self.bbox[1]

    def shifted(self, rows: int, cols: int) -> "Region":
        """The region translated by ``(rows, cols)`` — crop to frame coordinates."""
        r0, c0, r1, c1 = self.bbox
        return Region(
            label=self.label,
            area=self.area,
            bbox=(r0 + rows, c0 + cols, r1 + rows, c1 + cols),
            centroid=(self.centroid[0] + rows, self.centroid[1] + cols),
        )


def label_regions(mask: np.ndarray, connectivity: int = 2) -> tuple[np.ndarray, int]:
    """Label connected components of a boolean mask.

    Args:
        mask: ``(H, W)`` boolean array.
        connectivity: 1 for 4-connectivity, 2 for 8-connectivity.

    Returns:
        ``(labels, count)`` — an int label image (0 = background) and the
        number of regions found.
    """
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {arr.shape}")
    if connectivity not in (1, 2):
        raise ValueError("connectivity must be 1 or 2")
    structure = ndimage.generate_binary_structure(2, connectivity)
    labels, count = ndimage.label(arr, structure=structure)
    return labels, int(count)


def regions_in(mask: np.ndarray, connectivity: int = 2, min_area: int = 1) -> list[Region]:
    """All connected regions of *mask* with at least *min_area* pixels.

    One labelling pass, then areas and centroid sums by ``np.bincount``
    over the labelled pixels.  The sums are integers below 2**53, so the
    float64 accumulation is exact and ``sum / area`` is the division
    ``scipy.ndimage.center_of_mass`` performs — bit-equal centroids.
    """
    labels, count = label_regions(mask, connectivity=connectivity)
    if count == 0:
        return []
    rows, cols = np.nonzero(labels)
    of_pixel = labels[rows, cols]
    areas = np.bincount(of_pixel, minlength=count + 1)
    row_sums = np.bincount(of_pixel, weights=rows, minlength=count + 1)
    col_sums = np.bincount(of_pixel, weights=cols, minlength=count + 1)
    regions: list[Region] = []
    for label, (rs, cs) in enumerate(ndimage.find_objects(labels, max_label=count), start=1):
        area = int(areas[label])
        if area >= min_area:
            regions.append(
                Region(
                    label=label,
                    area=area,
                    bbox=(rs.start, cs.start, rs.stop, cs.stop),
                    centroid=(float(row_sums[label] / area), float(col_sums[label] / area)),
                )
            )
    return regions
