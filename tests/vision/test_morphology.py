"""Morphology tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from scipy import ndimage

from repro.vision.morphology import closing, opening, square_element

masks = npst.arrays(dtype=bool, shape=st.tuples(st.integers(3, 16), st.integers(3, 16)))


class TestElements:
    def test_square_element(self):
        assert square_element(3).shape == (3, 3)
        assert square_element(3).all()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            square_element(0)


class TestOperators:
    def test_opening_removes_speck(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        assert not opening(mask, size=3).any()

    def test_opening_keeps_big_blob(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[2:7, 2:7] = True
        assert opening(mask, size=3).sum() == 25

    def test_opening_removes_thin_line(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, :] = True  # 1-px court line
        assert not opening(mask, size=3).any()

    def test_closing_fills_hole(self):
        mask = np.ones((9, 9), dtype=bool)
        mask[4, 4] = False
        assert closing(mask, size=3).all()

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            opening(np.zeros((2, 2, 2), dtype=bool))

    @given(masks)
    @settings(max_examples=25, deadline=None)
    def test_opening_is_anti_extensive(self, mask):
        # opening(A) is a subset of A
        assert not (opening(mask) & ~mask).any()

    @given(masks)
    @settings(max_examples=25, deadline=None)
    def test_closing_is_extensive(self, mask):
        # A is a subset of closing(A)
        assert not (mask & ~closing(mask)).any()

    @given(masks)
    @settings(max_examples=25, deadline=None)
    def test_opening_idempotent(self, mask):
        once = opening(mask)
        assert np.array_equal(opening(once), once)


def scipy_opening(mask, size):
    return ndimage.binary_opening(mask, structure=np.ones((size, size), dtype=bool))


def scipy_closing(mask, size):
    """scipy's closing of the mask padded by *size* — the extensive closing."""
    element = np.ones((size, size), dtype=bool)
    closed = ndimage.binary_closing(np.pad(mask, size), structure=element)
    return closed[size:-size, size:-size]


class TestEqualsScipy:
    """The separable NumPy sweeps equal ``scipy.ndimage`` bit for bit, at
    every element size (an even element's centre included) and with the
    outside of the mask read as background."""

    @staticmethod
    def check(mask, size):
        assert np.array_equal(opening(mask, size=size), scipy_opening(mask, size))
        assert np.array_equal(closing(mask, size=size), scipy_closing(mask, size))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
        density=st.sampled_from([0.1, 0.5, 0.8, 0.95]),
        size=st.integers(1, 7),
    )
    def test_random_masks(self, seed, shape, density, size):
        self.check(np.random.default_rng(seed).random(shape) < density, size)

    @pytest.mark.parametrize("size", range(1, 8))
    def test_degenerate_masks(self, size):
        row = np.array([[1, 1, 0, 1, 1, 1, 1, 1, 0, 1]], dtype=bool)
        for mask in (
            np.zeros((5, 6), dtype=bool),
            np.zeros((1, 1), dtype=bool),
            np.ones((1, 1), dtype=bool),
            row,
            row.T,
            np.ones((5, 6), dtype=bool),
            np.ones((12, 12), dtype=bool),
        ):
            self.check(mask, size)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            opening(np.ones((3, 3), dtype=bool), size=0)
        with pytest.raises(ValueError):
            closing(np.ones((3, 3), dtype=bool), size=0)
