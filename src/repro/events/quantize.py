"""Trajectory quantisation: positions -> court zones -> symbols.

The event layer reasons about *where* the player is (net zone, midcourt,
baseline) and *how* the player moves laterally (still, slow, fast).  The
9-symbol product alphabet feeds the discrete HMMs; the zones feed the
white-box rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CourtZones",
    "TrajectoryQuantizer",
    "median_filter",
    "N_SYMBOLS",
    "ZONE_NAMES",
    "SIDE_NAMES",
    "MOTION_NAMES",
]

ZONE_NAMES = ("net", "mid", "baseline")
SIDE_NAMES = ("left", "center", "right")
MOTION_NAMES = ("still", "slow", "fast")

#: Size of the observation alphabet: zone x lateral motion.
N_SYMBOLS = len(ZONE_NAMES) * len(MOTION_NAMES)


@dataclass(frozen=True)
class CourtZones:
    """Zoning of the near court half.

    Vertically, the near half runs from the net row down to the near
    baseline and splits into the net zone (the paper's "approaching the
    net" region), midcourt, and the baseline zone.  Laterally the court
    splits into left / center / right bands (service stances happen in
    the side bands).

    Attributes:
        net_row: top of the near half (the net).
        baseline_row: bottom of the near half (the near baseline).
        left_col: left edge of the court surface.
        right_col: right edge of the court surface.
        net_fraction: fraction of the half counted as the net zone.
        baseline_fraction: fraction counted as the baseline zone.
        side_fraction: fraction of the court width in each side band.
    """

    net_row: float
    baseline_row: float
    left_col: float
    right_col: float
    net_fraction: float = 0.35
    baseline_fraction: float = 0.30
    side_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.baseline_row <= self.net_row:
            raise ValueError("baseline_row must lie below net_row")
        if self.right_col <= self.left_col:
            raise ValueError("right_col must lie right of left_col")
        if not 0 < self.net_fraction < 1 or not 0 < self.baseline_fraction < 1:
            raise ValueError("zone fractions must be in (0, 1)")
        if self.net_fraction + self.baseline_fraction >= 1:
            raise ValueError("net and baseline zones must leave room for midcourt")
        if not 0 < self.side_fraction < 0.5:
            raise ValueError("side_fraction must be in (0, 0.5)")

    @classmethod
    def from_court_bounds(cls, bounds: tuple[int, int, int, int], **kwargs) -> "CourtZones":
        """Zones from a court bounding box, taking the near (lower) half.

        The net sits at the vertical midpoint of the full court box.
        """
        r0, c0, r1, c1 = bounds
        return cls(
            net_row=(r0 + r1) / 2.0,
            baseline_row=float(r1),
            left_col=float(c0),
            right_col=float(c1),
            **kwargs,
        )

    @property
    def depth(self) -> float:
        """Vertical extent of the near half in pixels."""
        return self.baseline_row - self.net_row

    @property
    def net_zone_limit(self) -> float:
        """Rows above this (closer to the net) are the net zone."""
        return self.net_row + self.net_fraction * self.depth

    @property
    def baseline_zone_limit(self) -> float:
        """Rows below this are the baseline zone."""
        return self.baseline_row - self.baseline_fraction * self.depth

    @property
    def width(self) -> float:
        """Lateral extent of the court in pixels."""
        return self.right_col - self.left_col

    @property
    def left_band_limit(self) -> float:
        """Columns left of this are the left band."""
        return self.left_col + self.side_fraction * self.width

    @property
    def right_band_limit(self) -> float:
        """Columns right of this are the right band."""
        return self.right_col - self.side_fraction * self.width

    def zone(self, row: float) -> int:
        """Zone index of a row: 0 = net, 1 = mid, 2 = baseline."""
        if row <= self.net_zone_limit:
            return 0
        if row >= self.baseline_zone_limit:
            return 2
        return 1

    def side(self, col: float) -> int:
        """Side index of a column: 0 = left, 1 = center, 2 = right."""
        if col <= self.left_band_limit:
            return 0
        if col >= self.right_band_limit:
            return 2
        return 1


def median_filter(values: np.ndarray, k: int) -> np.ndarray:
    """Running median of half-width *k* over a position series.

    Each output is the median of the non-NaN values in its window
    (tracker misses are NaN and never pull a neighbour); a window with
    no values keeps its NaN.  ``k < 1`` or fewer than 3 values returns
    *values* unchanged.  A window holds at most ``2k + 1`` values, so
    its median is the middle of a sorted list of Python floats — with
    ``(a + b) / 2`` for an even count, the float64 arithmetic
    ``np.median`` does.
    """
    if k < 1 or len(values) < 3:
        return values
    out = values.copy()
    series = values.tolist()
    for i in range(len(series)):
        window = sorted(v for v in series[max(0, i - k) : i + k + 1] if v == v)  # drops NaN
        half, odd = divmod(len(window), 2)
        if odd:
            out[i] = window[half]
        elif window:
            out[i] = (window[half - 1] + window[half]) / 2
    return out


class TrajectoryQuantizer:
    """Quantise a trajectory into the 9-symbol zone x motion alphabet.

    Args:
        zones: the court zoning.
        slow_speed: lateral speed (px/frame) separating still from slow.
        fast_speed: lateral speed separating slow from fast.
        smooth: half-width of the :func:`median_filter` applied to the
            positions before quantisation — suppresses tracker jitter, the
            same pre-processing the white-box rules apply.  0 disables.
    """

    def __init__(
        self,
        zones: CourtZones,
        slow_speed: float = 0.6,
        fast_speed: float = 1.8,
        smooth: int = 1,
    ):
        if not 0 < slow_speed < fast_speed:
            raise ValueError("need 0 < slow_speed < fast_speed")
        if smooth < 0:
            raise ValueError(f"smooth must be >= 0, got {smooth}")
        self.zones = zones
        self.slow_speed = slow_speed
        self.fast_speed = fast_speed
        self.smooth = smooth

    def motion_class(self, lateral_speed: float) -> int:
        """Motion index: 0 = still, 1 = slow, 2 = fast."""
        speed = abs(lateral_speed)
        if speed < self.slow_speed:
            return 0
        if speed < self.fast_speed:
            return 1
        return 2

    def symbols(self, trajectory: list[tuple[float, float]]) -> np.ndarray:
        """Symbol sequence for a trajectory of ``(row, col)`` positions.

        The lateral speed at frame ``t`` is ``|col[t] - col[t-1]|``
        (0 for the first frame).  Symbol = ``zone * 3 + motion``.
        """
        if not trajectory:
            return np.zeros(0, dtype=np.int64)
        rows = median_filter(np.array([p[0] for p in trajectory], dtype=np.float64), self.smooth)
        cols = median_filter(np.array([p[1] for p in trajectory], dtype=np.float64), self.smooth)
        speeds = np.abs(np.diff(cols, prepend=cols[0]))
        out = np.empty(len(trajectory), dtype=np.int64)
        for t in range(len(trajectory)):
            out[t] = self.zones.zone(float(rows[t])) * len(MOTION_NAMES) + self.motion_class(
                float(speeds[t])
            )
        return out
