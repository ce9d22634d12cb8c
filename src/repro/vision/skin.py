"""Skin-colour detection.

The paper classifies a shot as a close-up "if it contains a significant
amount of skin colored pixels".  We model skin colour as an axis-aligned
box in HSV plus the classic RGB ratio constraints, which is what
early-2000s skin detectors (Peer et al., Kovac et al.) used.

The model is deliberately parametric so tests and the synthetic video
generator can agree exactly on what counts as skin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vision.color import ensure_rgb, frame_colours

__all__ = ["SkinColorModel", "skin_ratio", "DEFAULT_SKIN_MODEL"]


@dataclass(frozen=True)
class SkinColorModel:
    """Rule-based skin classifier in RGB space.

    A pixel is skin when all hold (the Peer/Kovac daylight rules):

    - ``r > r_min`` and ``g > g_min`` and ``b > b_min``
    - ``max(r,g,b) - min(r,g,b) > spread_min`` (skin is never grey)
    - ``r > g`` and ``r > b`` (red dominance)
    - ``|r - g| > rg_gap_min``
    """

    r_min: int = 95
    g_min: int = 40
    b_min: int = 20
    spread_min: int = 15
    rg_gap_min: int = 15

    def mask(self, image: np.ndarray) -> np.ndarray:
        """Boolean mask of skin pixels for an RGB frame."""
        rgb = ensure_rgb(image).astype(np.int32)
        r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
        maxc = rgb.max(axis=-1)
        minc = rgb.min(axis=-1)
        return (
            (r > self.r_min)
            & (g > self.g_min)
            & (b > self.b_min)
            & ((maxc - minc) > self.spread_min)
            & (np.abs(r - g) > self.rg_gap_min)
            & (r > g)
            & (r > b)
        )

    def ratio(self, image: np.ndarray) -> float:
        """Fraction of frame pixels classified as skin, in ``[0, 1]``."""
        mask = self.mask(image)
        return float(mask.mean()) if mask.size else 0.0

    def _planar_mask(self, planes: np.ndarray) -> np.ndarray:
        """:meth:`mask` on ``(3, P)`` uint8 planes, ``(P,)`` bool.

        Under red dominance (``r > g`` and ``r > b``) the chain reduces
        exactly: ``max - min`` is ``r - min(g, b)`` and ``|r - g|`` is
        ``r - g``, both positive, so the uint8 differences cannot wrap
        on any pixel the dominance terms keep — no widened copy needed.
        """
        r, g, b = planes
        return (
            (r > self.r_min)
            & (g > self.g_min)
            & (b > self.b_min)
            & (r > g)
            & (r > b)
            & (r - np.minimum(g, b) > self.spread_min)
            & (r - g > self.rg_gap_min)
        )

    def masks(self, frames) -> np.ndarray:
        """Boolean skin masks, ``(N, H, W)``, of a clip or a shared frame block.

        Each frame's shared planes go through :meth:`_planar_mask`;
        integer comparisons are exact, so ``masks(c)[i]`` equals
        ``mask(c[i])`` bit for bit.
        """
        masks = [
            self._planar_mask(colour.planes).reshape(colour.frame.shape[:2])
            for colour in frame_colours(frames)
        ]
        return np.stack(masks) if masks else np.zeros((0, 1, 1), dtype=bool)

    def ratios(self, frames) -> np.ndarray:
        """Per-frame skin fractions of a clip or a shared frame block, ``(N,)``.

        A fraction is an integer pixel count divided by the frame size —
        exact in float64 — so each entry equals :meth:`ratio` on that
        frame.
        """
        masks = [self._planar_mask(colour.planes) for colour in frame_colours(frames)]
        return np.array([np.count_nonzero(m) / m.size if m.size else 0.0 for m in masks])


#: Default model; also the model the synthetic close-up renderer targets.
DEFAULT_SKIN_MODEL = SkinColorModel()


def skin_ratio(image: np.ndarray, model: SkinColorModel | None = None) -> float:
    """Convenience wrapper: skin-pixel fraction under *model* (default model)."""
    return (model or DEFAULT_SKIN_MODEL).ratio(image)
