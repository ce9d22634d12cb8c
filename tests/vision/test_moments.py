"""Shape feature tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vision.moments import shape_features


def rectangle(r0, c0, h, w, shape=(32, 32)):
    mask = np.zeros(shape, dtype=bool)
    mask[r0 : r0 + h, c0 : c0 + w] = True
    return mask


class TestShapeFeatures:
    def test_none_for_empty(self):
        assert shape_features(np.zeros((4, 4), dtype=bool)) is None

    def test_area_and_bbox(self):
        feats = shape_features(rectangle(2, 3, 4, 5))
        assert feats.area == 20
        assert feats.bbox == (2, 3, 6, 8)

    def test_centroid_of_rectangle(self):
        feats = shape_features(rectangle(2, 3, 4, 5))
        assert feats.centroid == (pytest.approx(3.5), pytest.approx(5.0))

    def test_aspect_ratio(self):
        feats = shape_features(rectangle(0, 0, 10, 5))
        assert feats.aspect_ratio == pytest.approx(2.0)

    def test_square_low_eccentricity(self):
        feats = shape_features(rectangle(0, 0, 8, 8))
        assert feats.eccentricity == pytest.approx(0.0, abs=1e-9)

    def test_elongated_high_eccentricity(self):
        feats = shape_features(rectangle(0, 0, 20, 2))
        assert feats.eccentricity > 0.9

    def test_vertical_orientation(self):
        # A tall upright region's major axis is vertical: |angle| = pi/2.
        feats = shape_features(rectangle(2, 10, 20, 3))
        assert abs(abs(feats.orientation) - np.pi / 2) < 0.05

    def test_horizontal_orientation(self):
        feats = shape_features(rectangle(10, 2, 3, 20))
        assert abs(feats.orientation) < 0.05

    def test_diagonal_orientation(self):
        mask = np.zeros((20, 20), dtype=bool)
        for i in range(15):
            mask[i, i : i + 3] = True
        feats = shape_features(mask)
        # Covariance-based orientation of a down-right diagonal (rows grow
        # with cols) is +-45 degrees.
        assert abs(abs(feats.orientation) - np.pi / 4) < 0.1

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            shape_features(np.zeros((2, 2, 2), dtype=bool))

    def test_vector_roundtrip(self):
        feats = shape_features(rectangle(1, 1, 4, 4))
        vec = feats.as_vector()
        assert vec[0] == feats.area
        assert len(vec) == 10

    @given(
        st.integers(0, 10),
        st.integers(0, 10),
        st.integers(2, 8),
        st.integers(2, 8),
        st.integers(0, 12),
        st.integers(0, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, r0, c0, h, w, dr, dc):
        """Area, orientation and eccentricity are translation-invariant."""
        a = shape_features(rectangle(r0, c0, h, w, shape=(40, 40)))
        b = shape_features(rectangle(r0 + dr, c0 + dc, h, w, shape=(40, 40)))
        assert a.area == b.area
        assert a.eccentricity == pytest.approx(b.eccentricity, abs=1e-9)
        assert a.orientation == pytest.approx(b.orientation, abs=1e-9)
        assert b.centroid[0] - a.centroid[0] == pytest.approx(dr)
        assert b.centroid[1] - a.centroid[1] == pytest.approx(dc)
