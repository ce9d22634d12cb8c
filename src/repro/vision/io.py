"""Minimal image file IO: binary PPM.

The demo front end shows keyframes for retrieved scenes; a library
needs to write those images somewhere.  PPM (P6) is the simplest open
raster format — stdlib-only to write and read, viewable by practically
everything.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["write_ppm", "read_ppm"]


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    """Write an ``(H, W, 3)`` uint8 RGB image as binary PPM (P6)."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"expected (H, W, 3) uint8, got {arr.shape} {arr.dtype}")
    height, width = arr.shape[:2]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.tobytes())


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary PPM (P6) into an ``(H, W, 3)`` uint8 array."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P6"):
        raise ValueError(f"not a P6 file: {path}")
    # Header: magic, whitespace-separated width/height/maxval, then raster.
    fields: list[int] = []
    position = 2
    while len(fields) < 3:
        while position < len(data) and data[position : position + 1].isspace():
            position += 1
        if data[position : position + 1] == b"#":  # comment line
            while position < len(data) and data[position] != 0x0A:
                position += 1
            continue
        start = position
        while position < len(data) and not data[position : position + 1].isspace():
            position += 1
        fields.append(int(data[start:position]))
    position += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    raster = np.frombuffer(data[position:], dtype=np.uint8)
    expected = width * height * 3
    if len(raster) < expected:
        raise ValueError("truncated PPM raster")
    return raster[:expected].reshape(height, width, 3).copy()
