"""Binary morphology: opening and closing.

The player segmentation mask is noisy (court texture, line markings); the
tracker cleans it with an opening before extracting regions, mirroring the
post-processing any 2002-era segmentation pipeline applied.

Both operators use a square structuring element, so erosion and dilation
are separable: one AND (erosion) or OR (dilation) sweep along the rows,
then one along the columns, each a few whole-array slice operations.
Pixels outside the mask count as background, and the element's centre
sits where ``scipy.ndimage`` puts it (even sizes included): the results
equal ``binary_opening`` / ``binary_closing`` bit for bit, which
``tests/vision/test_morphology.py`` checks against scipy itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["opening", "closing", "square_element"]


def square_element(size: int) -> np.ndarray:
    """A ``size`` x ``size`` all-ones structuring element."""
    if size < 1:
        raise ValueError(f"structuring element size must be >= 1, got {size}")
    return np.ones((size, size), dtype=bool)


def _check_mask(mask: np.ndarray, size: int) -> np.ndarray:
    square_element(size)  # rejects size < 1
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {arr.shape}")
    return arr


def _sweep(arr: np.ndarray, size: int, lead: int, op: np.ufunc) -> np.ndarray:
    """*op* (AND erodes, OR dilates) over a ``size`` x ``size`` window.

    ``out[i, j] = op(arr[i + a, j + b] for a, b in [-lead, size - lead))``,
    where an index outside the array reads background (``False``): the
    array is padded with ``False`` once, then swept along the rows and
    then along the columns (a square window is separable).
    """
    h, w = arr.shape
    padded = np.zeros((h + size - 1, w + size - 1), dtype=bool)
    padded[lead : lead + h, lead : lead + w] = arr
    rows = padded[:, :w].copy()
    for d in range(1, size):
        op(rows, padded[:, d : d + w], out=rows)
    out = rows[:h].copy()
    for d in range(1, size):
        op(out, rows[d : d + h], out=out)
    return out


def _erode(arr: np.ndarray, size: int) -> np.ndarray:
    return _sweep(arr, size, size // 2, np.logical_and)


def _dilate(arr: np.ndarray, size: int) -> np.ndarray:
    # scipy reflects the element for dilation, which moves an even
    # element's centre by one: the window is the erosion's, mirrored.
    return _sweep(arr, size, (size - 1) // 2, np.logical_or)


def opening(mask: np.ndarray, size: int = 3) -> np.ndarray:
    """Erosion followed by dilation — removes specks smaller than the element."""
    return _dilate(_erode(_check_mask(mask, size), size), size)


def closing(mask: np.ndarray, size: int = 3) -> np.ndarray:
    """Dilation followed by erosion — fills holes smaller than the element.

    The mask is padded before the operation so closing stays *extensive*
    (``mask ⊆ closing(mask)``) at the frame borders, which the
    outside-is-background rule alone does not guarantee.
    """
    padded = np.pad(_check_mask(mask, size), size, mode="constant", constant_values=False)
    closed = _erode(_dilate(padded, size), size)
    return closed[size:-size, size:-size]
