"""Dominant colour tests."""

import numpy as np
import pytest

from repro.vision.dominant import color_coverage, dominant_color


def solid(color, h=8, w=8):
    frame = np.zeros((h, w, 3), dtype=np.uint8)
    frame[:] = color
    return frame


class TestDominantColor:
    def test_solid_frame(self):
        color, coverage = dominant_color(solid((40, 130, 80)))
        assert np.allclose(color, (40, 130, 80))
        assert coverage == pytest.approx(1.0)

    def test_majority_wins(self):
        frame = solid((200, 10, 10))
        frame[:2] = (10, 10, 200)  # minority
        color, coverage = dominant_color(frame)
        assert np.allclose(color, (200, 10, 10))
        assert coverage == pytest.approx(0.75)

    def test_mean_of_winning_cell(self):
        # Two nearby shades in one quantisation cell: expect their mean.
        frame = solid((100, 100, 100))
        frame[:, ::2] = (102, 102, 102)
        color, coverage = dominant_color(frame, bins=8)
        assert coverage == pytest.approx(1.0)
        assert np.allclose(color, (101, 101, 101))


class TestColorCoverage:
    def test_full_coverage(self):
        assert color_coverage(solid((40, 130, 80)), np.array([40, 130, 80])) == 1.0

    def test_partial_coverage(self):
        frame = solid((40, 130, 80))
        frame[:4] = (255, 255, 255)
        assert color_coverage(frame, np.array([40, 130, 80])) == pytest.approx(0.5)

    def test_tolerance_matters(self):
        frame = solid((40, 130, 80))
        near = np.array([60, 130, 80])  # distance 20
        assert color_coverage(frame, near, tolerance=25) == 1.0
        assert color_coverage(frame, near, tolerance=10) == 0.0
