"""Histogram and distance tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.vision.histogram import (
    color_histogram,
    grey_histogram,
    histogram_difference,
    hsv_histogram,
)

rgb_images = npst.arrays(
    dtype=np.uint8, shape=st.tuples(st.integers(1, 10), st.integers(1, 10), st.just(3))
)


def solid(color, h=6, w=6):
    frame = np.zeros((h, w, 3), dtype=np.uint8)
    frame[:] = color
    return frame


class TestColorHistogram:
    def test_normalised_sums_to_one(self):
        hist = color_histogram(solid((10, 200, 30)))
        assert hist.sum() == pytest.approx(1.0)

    def test_solid_frame_single_bin(self):
        hist = color_histogram(solid((10, 200, 30)), bins=4)
        assert np.count_nonzero(hist) == 1

    def test_counts_mode(self):
        hist = color_histogram(solid((0, 0, 0), h=3, w=5), normalize=False)
        assert hist.sum() == 15

    def test_length_is_bins_cubed(self):
        assert len(color_histogram(solid((0, 0, 0)), bins=5)) == 125

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            color_histogram(solid((0, 0, 0)), bins=1)
        with pytest.raises(ValueError):
            color_histogram(solid((0, 0, 0)), bins=300)

    @given(rgb_images, st.sampled_from([2, 4, 8]))
    @settings(max_examples=25, deadline=None)
    def test_always_a_distribution(self, image, bins):
        hist = color_histogram(image, bins=bins)
        assert hist.min() >= 0
        assert hist.sum() == pytest.approx(1.0)


class TestHsvHistogram:
    def test_normalised(self):
        hist = hsv_histogram(solid((10, 200, 30)))
        assert hist.sum() == pytest.approx(1.0)

    def test_solid_frame_single_bin(self):
        assert np.count_nonzero(hsv_histogram(solid((10, 200, 30)), bins=4)) == 1

    def test_less_sensitive_to_brightness_than_rgb(self):
        a = solid((60, 160, 90))
        b = np.clip(a.astype(np.int64) * 0.88, 0, 255).astype(np.uint8)
        rgb_d = histogram_difference(color_histogram(a), color_histogram(b))
        hsv_d = histogram_difference(hsv_histogram(a), hsv_histogram(b))
        assert hsv_d <= rgb_d

    @given(rgb_images)
    @settings(max_examples=20, deadline=None)
    def test_distribution_property(self, image):
        hist = hsv_histogram(image)
        assert hist.min() >= 0
        assert hist.sum() == pytest.approx(1.0)


class TestGreyHistogram:
    def test_uniform_ramp_spreads(self):
        ramp = np.tile(np.arange(256, dtype=np.uint8), (2, 1))
        hist = grey_histogram(ramp, bins=16)
        assert np.count_nonzero(hist) == 16

    def test_rejects_rgb(self):
        with pytest.raises(ValueError):
            grey_histogram(solid((0, 0, 0)))


class TestDistances:
    def test_identical_frames_zero_difference(self):
        h = color_histogram(solid((50, 60, 70)))
        assert histogram_difference(h, h) == pytest.approx(0.0)

    def test_disjoint_frames_distance_one(self):
        h1 = color_histogram(solid((0, 0, 0)))
        h2 = color_histogram(solid((255, 255, 255)))
        assert histogram_difference(h1, h2) == pytest.approx(1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            histogram_difference(np.ones(4), np.ones(5))

    @given(rgb_images, rgb_images.map(lambda a: a))
    @settings(max_examples=25, deadline=None)
    def test_difference_symmetric_and_bounded(self, a, b):
        ha = color_histogram(a)
        hb = color_histogram(b)
        if ha.shape != hb.shape:
            return
        d_ab = histogram_difference(ha, hb)
        d_ba = histogram_difference(hb, ha)
        assert d_ab == pytest.approx(d_ba)
        assert 0.0 <= d_ab <= 1.0 + 1e-12

    @given(rgb_images)
    @settings(max_examples=25, deadline=None)
    def test_intersection_plus_difference_is_one(self, image):
        # For normalised histograms: intersection (sum of bin-wise minima)
        # = 1 - L1/2.
        other = np.ascontiguousarray(image[::-1])
        ha = color_histogram(image)
        hb = color_histogram(other)
        total = np.minimum(ha, hb).sum() + histogram_difference(ha, hb)
        assert total == pytest.approx(1.0)
