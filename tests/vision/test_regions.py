"""Connected-component tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.tracking.reference import regions_in_reference
from repro.vision.regions import label_regions, regions_in


def mask_with_blobs():
    mask = np.zeros((12, 12), dtype=bool)
    mask[1:4, 1:4] = True  # 9 px blob
    mask[7:12, 6:10] = True  # 20 px blob
    return mask


class TestLabelRegions:
    def test_counts_blobs(self):
        _labels, count = label_regions(mask_with_blobs())
        assert count == 2

    def test_empty_mask(self):
        _labels, count = label_regions(np.zeros((5, 5), dtype=bool))
        assert count == 0

    def test_diagonal_connectivity(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        assert label_regions(mask, connectivity=2)[1] == 1
        assert label_regions(mask, connectivity=1)[1] == 2

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            label_regions(np.zeros((2, 2, 2), dtype=bool))

    def test_rejects_bad_connectivity(self):
        with pytest.raises(ValueError):
            label_regions(np.zeros((2, 2), dtype=bool), connectivity=3)


def degenerate_masks():
    """Empty, 1-pixel, single-row, single-column and all-true masks."""
    row = np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool)
    yield np.zeros((5, 6), dtype=bool)
    yield np.zeros((1, 1), dtype=bool)
    yield np.ones((1, 1), dtype=bool)
    yield row
    yield row.T
    yield np.ones((1, 9), dtype=bool)
    yield np.ones((9, 1), dtype=bool)
    yield np.ones((5, 6), dtype=bool)


class TestLabelRegionsEqualsScipy:
    """``label_regions`` (run-length union-find) equals ``scipy.ndimage.label``:
    the same label image — numbered by first raster appearance — and count."""

    @staticmethod
    def check(mask, connectivity):
        structure = ndimage.generate_binary_structure(2, connectivity)
        expected, expected_count = ndimage.label(mask, structure=structure)
        labels, count = label_regions(mask, connectivity=connectivity)
        assert count == expected_count
        assert labels.dtype == expected.dtype
        assert np.array_equal(labels, expected)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        density=st.sampled_from([0.05, 0.3, 0.5, 0.6, 0.7, 0.95]),
        connectivity=st.sampled_from([1, 2]),
    )
    def test_random_masks(self, seed, shape, density, connectivity):
        self.check(np.random.default_rng(seed).random(shape) < density, connectivity)

    @pytest.mark.parametrize("connectivity", [1, 2])
    def test_degenerate_masks(self, connectivity):
        for mask in degenerate_masks():
            self.check(mask, connectivity)

    @pytest.mark.parametrize("connectivity", [1, 2])
    def test_merges_late_joins_and_spirals(self, connectivity):
        """A U joined at its bottom, a W, and a spiral: components whose
        runs meet only several rows after they start."""
        u = np.zeros((6, 7), dtype=bool)
        u[:, 0] = u[:, 6] = u[5, :] = True
        w = np.zeros((5, 9), dtype=bool)
        w[:, [0, 4, 8]] = True
        w[4, :] = True
        spiral = np.ones((9, 9), dtype=bool)
        spiral[1:8, 1] = spiral[7, 1:8] = spiral[1:8, 7] = spiral[1, 3:8] = False
        spiral[3:6, 3] = spiral[5, 3:6] = False
        for mask in (u, w, spiral, ~spiral):
            self.check(mask, connectivity)


class TestRegionsIn:
    def test_areas_and_bboxes(self):
        regions = sorted(regions_in(mask_with_blobs()), key=lambda r: r.area)
        assert [r.area for r in regions] == [9, 20]
        assert regions[0].bbox == (1, 1, 4, 4)
        assert regions[1].bbox == (7, 6, 12, 10)

    def test_min_area_filter(self):
        regions = regions_in(mask_with_blobs(), min_area=10)
        assert len(regions) == 1
        assert regions[0].area == 20

    def test_centroid(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        region = regions_in(mask)[0]
        assert region.centroid == (2.0, 2.0)

    def test_width_height(self):
        region = sorted(regions_in(mask_with_blobs()), key=lambda r: r.area)[1]
        assert region.height == 5
        assert region.width == 4


class TestRegionsInEqualsScipyReference:
    """``regions_in`` (bincount sums) ``==`` the scipy labelled-statistics
    oracle: label, area, bbox and centroid bits."""

    @staticmethod
    def check(mask, connectivity=2, min_area=1):
        assert regions_in(mask, connectivity, min_area) == regions_in_reference(
            mask, connectivity, min_area
        )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        density=st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.95]),
        connectivity=st.sampled_from([1, 2]),
        min_area=st.integers(1, 12),
    )
    def test_random_masks(self, seed, shape, density, connectivity, min_area):
        mask = np.random.default_rng(seed).random(shape) < density
        self.check(mask, connectivity, min_area)

    @pytest.mark.parametrize("connectivity", [1, 2])
    def test_degenerate_masks(self, connectivity):
        single = np.zeros((7, 9), dtype=bool)
        single[3, 4] = True
        for mask in (single, *degenerate_masks()):
            self.check(mask, connectivity)
        assert regions_in(np.zeros((5, 6), dtype=bool)) == []

    def test_diagonal_only_joins(self):
        mask = np.eye(9, dtype=bool) | np.eye(9, dtype=bool)[::-1]
        self.check(mask, connectivity=1)
        self.check(mask, connectivity=2)
        assert len(regions_in(mask, connectivity=1)) == 17
        assert len(regions_in(mask, connectivity=2)) == 1

    def test_min_area_keeps_labels_of_survivors(self):
        regions = regions_in(mask_with_blobs(), min_area=10)
        assert regions == regions_in_reference(mask_with_blobs(), min_area=10)
        assert [r.label for r in regions] == [2]

    def test_large_coordinates_stay_exact(self):
        """Thirds far from the origin: the centroid division has no slack."""
        mask = np.zeros((300, 400), dtype=bool)
        mask[297:300, 390:397] = True
        mask[299, 399] = True
        self.check(mask)
