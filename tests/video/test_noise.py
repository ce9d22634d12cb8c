"""Noise model tests."""

import numpy as np
import pytest

from repro.video.noise import add_gaussian_noise


def solid(value=128):
    return np.full((32, 32, 3), value, dtype=np.uint8)


class TestGaussianNoise:
    def test_zero_sigma_is_copy(self):
        frame = solid()
        noisy = add_gaussian_noise(frame, 0.0, np.random.default_rng(0))
        assert np.array_equal(noisy, frame)
        assert noisy is not frame

    def test_sigma_scales_spread(self):
        rng = np.random.default_rng(0)
        low = add_gaussian_noise(solid(), 2.0, rng).astype(float).std()
        high = add_gaussian_noise(solid(), 8.0, rng).astype(float).std()
        assert high > low

    def test_mean_preserved(self):
        noisy = add_gaussian_noise(solid(128), 5.0, np.random.default_rng(0))
        assert abs(noisy.mean() - 128) < 1.0

    def test_clipping(self):
        noisy = add_gaussian_noise(solid(250), 30.0, np.random.default_rng(0))
        assert noisy.max() <= 255

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            add_gaussian_noise(solid(), -1.0, np.random.default_rng(0))
