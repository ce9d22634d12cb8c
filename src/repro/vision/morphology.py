"""Binary morphology: opening and closing.

The player segmentation mask is noisy (court texture, line markings); the
tracker cleans it with an opening before extracting regions, mirroring the
post-processing any 2002-era segmentation pipeline applied.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

__all__ = ["opening", "closing", "square_element"]


def square_element(size: int) -> np.ndarray:
    """A ``size`` x ``size`` all-ones structuring element."""
    if size < 1:
        raise ValueError(f"structuring element size must be >= 1, got {size}")
    return np.ones((size, size), dtype=bool)


def _check_mask(mask: np.ndarray) -> np.ndarray:
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {arr.shape}")
    return arr


def opening(mask: np.ndarray, size: int = 3) -> np.ndarray:
    """Erosion followed by dilation — removes specks smaller than the element."""
    return ndimage.binary_opening(_check_mask(mask), structure=square_element(size))


def closing(mask: np.ndarray, size: int = 3) -> np.ndarray:
    """Dilation followed by erosion — fills holes smaller than the element.

    The mask is padded before the operation so closing stays *extensive*
    (``mask ⊆ closing(mask)``) at the frame borders, which scipy's raw
    implementation does not guarantee.
    """
    checked = _check_mask(mask)
    padded = np.pad(checked, size, mode="constant", constant_values=False)
    closed = ndimage.binary_closing(padded, structure=square_element(size))
    return closed[size:-size, size:-size]
