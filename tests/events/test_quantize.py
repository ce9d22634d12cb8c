"""Court zoning and trajectory quantisation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.quantize import (
    MOTION_NAMES,
    N_SYMBOLS,
    ZONE_NAMES,
    CourtZones,
    TrajectoryQuantizer,
    median_filter,
)


@pytest.fixture
def zones():
    return CourtZones(net_row=50.0, baseline_row=90.0, left_col=20.0, right_col=108.0)


class TestCourtZones:
    def test_zone_boundaries(self, zones):
        assert zones.zone(50.0) == 0  # at the net
        assert zones.zone(zones.net_zone_limit) == 0
        assert zones.zone(zones.net_zone_limit + 1) == 1
        assert zones.zone(zones.baseline_zone_limit) == 2
        assert zones.zone(95.0) == 2

    def test_side_boundaries(self, zones):
        assert zones.side(20.0) == 0
        assert zones.side(64.0) == 1
        assert zones.side(108.0) == 2

    def test_depth_and_width(self, zones):
        assert zones.depth == 40.0
        assert zones.width == 88.0

    def test_from_court_bounds(self):
        zones = CourtZones.from_court_bounds((10, 20, 90, 110))
        assert zones.net_row == 50.0
        assert zones.baseline_row == 90.0
        assert zones.left_col == 20.0
        assert zones.right_col == 110.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"net_row": 90.0, "baseline_row": 50.0, "left_col": 0, "right_col": 10},
            {"net_row": 10.0, "baseline_row": 50.0, "left_col": 10, "right_col": 5},
            {"net_row": 10.0, "baseline_row": 50.0, "left_col": 0, "right_col": 10, "net_fraction": 0.7, "baseline_fraction": 0.5},
            {"net_row": 10.0, "baseline_row": 50.0, "left_col": 0, "right_col": 10, "side_fraction": 0.6},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CourtZones(**kwargs)

    @given(st.floats(0, 200, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_zone_always_valid(self, row):
        zones = CourtZones(net_row=50.0, baseline_row=90.0, left_col=0.0, right_col=100.0)
        assert zones.zone(row) in (0, 1, 2)


class TestQuantizer:
    def test_alphabet_size(self):
        assert N_SYMBOLS == len(ZONE_NAMES) * len(MOTION_NAMES)

    def test_motion_classes(self, zones):
        quantizer = TrajectoryQuantizer(zones, slow_speed=0.6, fast_speed=1.8)
        assert quantizer.motion_class(0.0) == 0
        assert quantizer.motion_class(1.0) == 1
        assert quantizer.motion_class(-5.0) == 2

    def test_symbols_of_still_baseline(self, zones):
        quantizer = TrajectoryQuantizer(zones)
        symbols = quantizer.symbols([(88.0, 60.0)] * 5)
        assert list(symbols) == [2 * 3 + 0] * 5

    def test_symbols_of_fast_net_motion(self, zones):
        quantizer = TrajectoryQuantizer(zones)
        trajectory = [(52.0, 10.0 + 5.0 * t) for t in range(4)]
        symbols = quantizer.symbols(trajectory)
        # First frame has zero prepended speed -> still; rest are fast.
        assert symbols[0] == 0
        assert all(s == 2 for s in symbols[1:])

    def test_empty_trajectory(self, zones):
        assert len(TrajectoryQuantizer(zones).symbols([])) == 0

    def test_speed_threshold_validation(self, zones):
        with pytest.raises(ValueError):
            TrajectoryQuantizer(zones, slow_speed=2.0, fast_speed=1.0)

    def test_symbols_in_range(self, zones):
        rng = np.random.default_rng(0)
        trajectory = [
            (float(rng.uniform(40, 100)), float(rng.uniform(0, 128))) for _ in range(50)
        ]
        symbols = TrajectoryQuantizer(zones).symbols(trajectory)
        assert symbols.min() >= 0
        assert symbols.max() < N_SYMBOLS


def _quantizer_filter_reference(values, k):
    """The quantiser's former private filter (NaN-free input only)."""
    if k < 1 or len(values) < 3:
        return values
    out = values.copy()
    for i in range(len(values)):
        lo = max(0, i - k)
        hi = min(len(values), i + k + 1)
        out[i] = np.median(values[lo:hi])
    return out


def _context_filter_reference(values, k):
    """The grammar context's former private filter (skips NaN)."""
    if k < 1 or len(values) < 3:
        return values
    out = values.copy()
    for i in range(len(values)):
        lo = max(0, i - k)
        hi = min(len(values), i + k + 1)
        window = values[lo:hi]
        window = window[~np.isnan(window)]
        if window.size:
            out[i] = np.median(window)
    return out


positions = st.floats(-500.0, 500.0, allow_nan=False)


class TestMedianFilter:
    @given(st.lists(positions, max_size=16), st.sampled_from([0, 1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_equals_both_former_filters_without_nan(self, values, k):
        arr = np.array(values, dtype=np.float64)
        out = median_filter(arr, k)
        assert np.array_equal(out, _quantizer_filter_reference(arr, k))
        assert np.array_equal(out, _context_filter_reference(arr, k))

    @given(
        st.lists(st.one_of(positions, st.just(float("nan"))), max_size=16),
        st.sampled_from([0, 1, 2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_context_filter_with_nan_runs(self, values, k):
        arr = np.array(values, dtype=np.float64)
        expected = _context_filter_reference(arr, k)
        assert np.array_equal(median_filter(arr, k), expected, equal_nan=True)

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),  # up to the overflow edge
                positions.map(lambda v: round(v, 1)),  # ties and even-count midpoints
                st.just(float("nan")),
            ),
            max_size=60,
        ),
        st.integers(0, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_sorted_window_equals_np_median(self, values, k):
        """The sorted-list median against the former ``np.median`` body,
        on every float64 (two huge values overflow the same way)."""
        arr = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore"):
            expected = _context_filter_reference(arr, k)
        assert np.array_equal(median_filter(arr, k), expected, equal_nan=True)
