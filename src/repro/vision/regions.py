"""Connected-component labelling for binary masks.

The player segmentation step produces a binary "not court" mask; the
tracker then needs the connected regions of that mask to find the player
blob.  Both steps work on the mask's horizontal runs: NumPy finds each
row's runs, a union-find joins the runs of adjacent rows, and per-region
statistics are integer sums over the runs of the label image.  The
results equal ``scipy.ndimage.label`` and its labelled statistics bit
for bit; ``tests/vision/test_regions.py`` checks that against scipy
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _runs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, start, stop)`` of every horizontal run of a 2-D boolean mask.

    Runs come in raster order; ``start``/``stop`` are half-open columns.
    A row's value changes alternate run start, run stop once the row is
    padded with background on both sides.
    """
    padded = np.zeros((arr.shape[0], arr.shape[1] + 2), dtype=bool)
    padded[:, 1:-1] = arr
    rows, cols = np.nonzero(padded[:, 1:] != padded[:, :-1])
    return rows[::2], cols[::2], cols[1::2]


def label_regions(mask: np.ndarray, connectivity: int = 2) -> tuple[np.ndarray, int]:
    """Label connected components of a boolean mask.

    Each row's runs are joined to the runs they touch in the row above
    (sharing a column for 4-connectivity, or a corner too for
    8-connectivity) by a union-find whose roots are each component's
    first run, and components are numbered by their first pixel in
    raster order — the numbering of ``scipy.ndimage.label``, whose label
    image and count this equals.

    Args:
        mask: ``(H, W)`` boolean array.
        connectivity: 1 for 4-connectivity, 2 for 8-connectivity.

    Returns:
        ``(labels, count)`` — an int32 label image (0 = background) and
        the number of regions found.
    """
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {arr.shape}")
    if connectivity not in (1, 2):
        raise ValueError("connectivity must be 1 or 2")
    runs = _runs(arr)
    rows, starts, stops = (a.tolist() for a in runs)
    slack = connectivity - 1  # how far past a run's end a touching run may start
    # run -> an earlier run of its component, or itself for the earliest
    # (a merge links the later root under the earlier one)
    parent: list[int] = []
    row = -2
    above = above_end = here = 0  # runs [above, above_end) may touch; `here` opens this row
    for i, (r, s, e) in enumerate(zip(rows, starts, stops)):
        if r != row:
            above, above_end = (here, i) if r == row + 1 else (i, i)
            here, row = i, r
        while above < above_end and stops[above] + slack <= s:
            above += 1  # ends left of this run, so left of every later one
        root = None
        j = above
        while j < above_end and starts[j] < e + slack:
            other = parent[j]
            while parent[other] != other:
                other = parent[other]
            if root is None or other < root:
                if root is not None:
                    parent[root] = other
                root = other
            elif other > root:
                parent[other] = root
            j += 1
        parent.append(i if root is None else root)
    count = 0
    of_run: list[int] = []
    for i, p in enumerate(parent):
        if p == i:
            count += 1
            of_run.append(count)
        else:
            while parent[p] != p:
                p = parent[p]
            of_run.append(of_run[p])
    labels = np.zeros(arr.shape, dtype=np.int32)
    labels[arr] = np.repeat(np.array(of_run, dtype=np.int32), runs[2] - runs[1])
    return labels, count


def regions_in(mask: np.ndarray, connectivity: int = 2, min_area: int = 1) -> list[Region]:
    """All connected regions of *mask* with at least *min_area* pixels.

    One labelling pass, then areas, bounding boxes and centroid sums over
    the runs of the label image (each run lies in one region; runs come
    in raster order, so a region's last run holds its bottom row).  The
    sums are exact integers, so ``sum / area`` is the correctly rounded
    quotient ``scipy.ndimage.center_of_mass`` computes — bit-equal
    centroids.
    """
    labels, count = label_regions(mask, connectivity=connectivity)
    rows, starts, stops = _runs(labels != 0)
    of_run = labels[rows, starts].tolist()
    # label -> [area, row sum, col sum, row_min, col_min, row_max, col_max]
    stats: dict[int, list[int]] = {}
    for label, r, s, e in zip(of_run, rows.tolist(), starts.tolist(), stops.tolist()):
        n = e - s
        st = stats.get(label)
        if st is None:
            stats[label] = [n, r * n, (s + e - 1) * n // 2, r, s, r + 1, e]
            continue
        st[0] += n
        st[1] += r * n
        st[2] += (s + e - 1) * n // 2
        st[4] = min(st[4], s)
        st[5] = r + 1
        st[6] = max(st[6], e)
    regions: list[Region] = []
    for label in range(1, count + 1):
        area, row_sum, col_sum, r0, c0, r1, c1 = stats[label]
        if area >= min_area:
            regions.append(
                Region(
                    label=label,
                    area=area,
                    bbox=(r0, c0, r1, c1),
                    centroid=(row_sum / area, col_sum / area),
                )
            )
    return regions
