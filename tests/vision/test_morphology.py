"""Morphology tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

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
