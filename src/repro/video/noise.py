"""Pixel noise models.

Broadcast video is never clean: sensor noise and compression artefacts
perturb the colour statistics the detectors rely on.  The generator
applies additive Gaussian noise so detector thresholds are exercised
realistically and the benchmarks can sweep noise levels.
"""

from __future__ import annotations

import numpy as np

__all__ = ["add_gaussian_noise"]


def add_gaussian_noise(
    frame: np.ndarray, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Return *frame* with zero-mean Gaussian noise of std *sigma* added.

    ``sigma = 0`` returns a copy unchanged; typical broadcast-like values
    are 2..8 grey levels.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return frame.copy()
    noisy = frame.astype(np.float64) + rng.normal(0.0, sigma, frame.shape)
    return np.clip(noisy, 0, 255).astype(np.uint8)
