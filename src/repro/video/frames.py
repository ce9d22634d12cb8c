"""Video clip container.

A :class:`VideoClip` is the raw-data layer of the COBRA model: an ordered
sequence of RGB frames with a frame rate.  Frames are materialised
``uint8`` arrays — synthetic broadcasts are short enough that lazy decode
machinery would only add complexity.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["VideoClip", "FRAME_HEIGHT", "FRAME_WIDTH"]

#: Default synthetic frame size (rows, cols).  Small enough for fast tests,
#: large enough that blobs, lines and histograms behave like real frames.
FRAME_HEIGHT = 96
FRAME_WIDTH = 128


class VideoClip:
    """An in-memory video: frames + frame rate + a name.

    Args:
        frames: sequence of ``(H, W, 3)`` uint8 arrays, all the same shape.
        fps: frames per second (> 0), defaults to 25 (PAL, as in 2002 .au
            broadcast material).
        name: identifier used by the meta-index.
    """

    def __init__(self, frames: Sequence[np.ndarray], fps: float = 25.0, name: str = "clip"):
        if fps <= 0:
            raise ValueError(f"fps must be positive, got {fps}")
        materialised = [np.asarray(f) for f in frames]
        if not materialised:
            raise ValueError("a VideoClip needs at least one frame")
        shape = materialised[0].shape
        for i, frame in enumerate(materialised):
            if frame.shape != shape:
                raise ValueError(
                    f"frame {i} has shape {frame.shape}, expected {shape}"
                )
            if frame.ndim != 3 or frame.shape[2] != 3:
                raise ValueError(f"frame {i} is not an (H, W, 3) RGB image")
            if frame.dtype != np.uint8:
                raise ValueError(f"frame {i} has dtype {frame.dtype}, expected uint8")
        self._frames = materialised
        self.fps = float(fps)
        self.name = name
        self._stacked: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._frames)

    def __getitem__(self, index: int) -> np.ndarray:
        return self._frames[index]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._frames)

    def as_array(self) -> np.ndarray:
        """The clip as one ``(N, H, W, 3)`` uint8 array, stacked once.

        The stacked-array kernel (the HSV histograms) takes this array;
        the colour kernels walk the frames instead.  The stack is cached
        on the clip (frames are treated as immutable).
        """
        if self._stacked is None:
            self._stacked = np.stack(self._frames)
        return self._stacked

    @property
    def shape(self) -> tuple[int, int]:
        """(height, width) of every frame."""
        h, w, _ = self._frames[0].shape
        return h, w

    @property
    def duration(self) -> float:
        """Clip duration in seconds."""
        return len(self._frames) / self.fps

    def subclip(self, start: int, stop: int, name: str | None = None) -> "VideoClip":
        """A new clip holding frames ``[start, stop)`` (shared arrays)."""
        if not 0 <= start < stop <= len(self._frames):
            raise ValueError(
                f"invalid subclip range [{start}, {stop}) for {len(self)} frames"
            )
        return VideoClip(
            self._frames[start:stop],
            fps=self.fps,
            name=name or f"{self.name}[{start}:{stop}]",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        h, w = self.shape
        return f"VideoClip(name={self.name!r}, frames={len(self)}, size={w}x{h}, fps={self.fps})"
