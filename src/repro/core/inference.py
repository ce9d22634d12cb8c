"""Grammar rule evaluation over trajectories and observations.

The inference engine turns a parsed :class:`~repro.core.grammars.ConceptGrammar`
into detections: event rules are evaluated frame-wise over a
:class:`TrajectoryContext` (positions, court zones, speeds) to produce
event intervals, with aggregate constraints checked per candidate run.
A grammar's OBJECT rules are parsed but not evaluated: no detector
classifies blobs.

This is the "white-box detector" path of the FDE: the rules themselves
are data, authored in the grammar, and the engine interprets them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grammars import (
    AggConstraint,
    And,
    Comparison,
    ConceptGrammar,
    GrammarError,
    HoldsRule,
    Not,
    Or,
    SeqRule,
)
from repro.core.temporal import Interval
from repro.events.quantize import SIDE_NAMES, ZONE_NAMES, CourtZones, median_filter

__all__ = ["DetectedEvent", "TrajectoryContext", "GrammarEventDetector"]


@dataclass(frozen=True)
class DetectedEvent:
    """An event interval recognised in a shot.

    Attributes:
        start: first frame of the event, shot-relative.
        stop: one past the last frame.
        label: event label.
        confidence: detector-specific confidence in ``(0, 1]``.
    """

    start: int
    stop: int
    label: str
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(f"invalid event interval [{self.start}, {self.stop})")
        if not 0 < self.confidence <= 1:
            raise ValueError(f"confidence must be in (0, 1], got {self.confidence}")

    @property
    def length(self) -> int:
        return self.stop - self.start


def _compare(values: np.ndarray, op: str, target: float) -> np.ndarray:
    if op == "=":
        return values == target
    if op == "!=":
        return values != target
    if op == ">=":
        return values >= target
    if op == "<=":
        return values <= target
    if op == ">":
        return values > target
    return values < target


def _compare_scalar(value: float, op: str, target: float) -> bool:
    return bool(_compare(np.asarray([value]), op, target)[0])


class TrajectoryContext:
    """Frame-wise fields derived from one shot trajectory.

    Args:
        trajectory: per-frame positions (``None`` = tracker miss).
        zones: court zoning used to resolve the ``zone`` field.
        smooth: half-width of the :func:`~repro.events.quantize.median_filter`
            applied to the positions — the jitter suppression the HMM
            quantiser also applies.  0 disables.
    """

    def __init__(
        self,
        trajectory: list[tuple[float, float] | None],
        zones: CourtZones,
        smooth: int = 1,
    ):
        if smooth < 0:
            raise ValueError(f"smooth must be >= 0, got {smooth}")
        self.zones = zones
        self.n_frames = len(trajectory)
        self.valid = np.array([p is not None for p in trajectory], dtype=bool)
        self.rows = median_filter(
            np.array(
                [p[0] if p is not None else np.nan for p in trajectory],
                dtype=np.float64,
            ),
            smooth,
        )
        self.cols = median_filter(
            np.array(
                [p[1] if p is not None else np.nan for p in trajectory],
                dtype=np.float64,
            ),
            smooth,
        )
        self.speeds = np.abs(np.diff(self.cols, prepend=self.cols[:1]))
        zone_index = np.full(self.n_frames, -1, dtype=np.int64)
        side_index = np.full(self.n_frames, -1, dtype=np.int64)
        for i in range(self.n_frames):
            if self.valid[i]:
                zone_index[i] = zones.zone(float(self.rows[i]))
                side_index[i] = zones.side(float(self.cols[i]))
        self.zone_index = zone_index
        self.side_index = side_index

    def field(self, name: str) -> np.ndarray:
        """Frame-wise values of a grammar field."""
        if name == "row":
            return self.rows
        if name == "col":
            return self.cols
        if name == "speed":
            return self.speeds
        if name == "zone":
            return self.zone_index
        if name == "side":
            return self.side_index
        raise GrammarError(f"unknown frame field {name!r}")

    # -- aggregates over a run ------------------------------------------- #

    def aggregate(self, name: str, start: int, stop: int) -> float:
        """Aggregate value of a field over frames ``[start, stop)``."""
        if name == "duration":
            return float(stop - start)
        speeds = self.speeds[start:stop]
        speeds = speeds[~np.isnan(speeds)]
        if name == "mean_speed":
            return float(speeds.mean()) if speeds.size else 0.0
        if name == "max_speed":
            return float(speeds.max()) if speeds.size else 0.0
        if name == "direction_changes":
            cols = self.cols[start:stop]
            deltas = np.diff(cols[~np.isnan(cols)])
            signs = np.sign(deltas[np.abs(deltas) > 0.2])
            if len(signs) < 2:
                return 0.0
            return float(np.sum(signs[1:] != signs[:-1]))
        raise GrammarError(f"unknown aggregate field {name!r}")


def _evaluate_predicate(node, context: TrajectoryContext) -> np.ndarray:
    """Frame-wise boolean evaluation of a predicate AST."""
    if isinstance(node, Comparison):
        if node.fieldname in ("zone", "side"):
            names = ZONE_NAMES if node.fieldname == "zone" else SIDE_NAMES
            if node.value not in names:
                raise GrammarError(
                    f"unknown {node.fieldname} {node.value!r}; expected one of {names}"
                )
            target = names.index(node.value)
            values = context.field(node.fieldname)
            result = _compare(values, node.op, target)
        else:
            values = context.field(node.fieldname)
            with np.errstate(invalid="ignore"):
                result = _compare(values, node.op, float(node.value))
            result = np.where(np.isnan(values), False, result)
        return result & context.valid
    if isinstance(node, And):
        out = _evaluate_predicate(node.items[0], context)
        for item in node.items[1:]:
            out = out & _evaluate_predicate(item, context)
        return out
    if isinstance(node, Or):
        out = _evaluate_predicate(node.items[0], context)
        for item in node.items[1:]:
            out = out | _evaluate_predicate(item, context)
        return out
    if isinstance(node, Not):
        return ~_evaluate_predicate(node.item, context) & context.valid
    raise GrammarError(f"unknown predicate node {node!r}")


def _bridge(flags: np.ndarray, max_gap: int) -> np.ndarray:
    """Fill internal False gaps of at most *max_gap* frames."""
    if max_gap <= 0:
        return flags
    out = flags.copy()
    n = len(flags)
    i = 0
    while i < n:
        if not out[i]:
            gap_start = i
            while i < n and not out[i]:
                i += 1
            if 0 < gap_start and i < n and (i - gap_start) <= max_gap:
                out[gap_start:i] = True
        else:
            i += 1
    return out


def _runs(flags: np.ndarray, min_length: int) -> list[Interval]:
    intervals: list[Interval] = []
    start = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_length:
                intervals.append(Interval(start, i))
            start = None
    if start is not None and len(flags) - start >= min_length:
        intervals.append(Interval(start, len(flags)))
    return intervals


class GrammarEventDetector:
    """Evaluate a grammar's event rules over one shot trajectory.

    Rules are evaluated in declaration order, so SEQ and UNLESS clauses
    see the detections of earlier rules — the dependency order the
    grammar's reference checker guarantees is well-founded.
    """

    def __init__(self, grammar: ConceptGrammar, zones: CourtZones, smooth: int = 1):
        self.grammar = grammar
        self.zones = zones
        self.smooth = smooth

    def detect(
        self, trajectory: list[tuple[float, float] | None]
    ) -> list[DetectedEvent]:
        """All grammar events found in the trajectory, sorted by start."""
        context = TrajectoryContext(trajectory, self.zones, smooth=self.smooth)
        detections: dict[str, list[Interval]] = {}
        for rule in self.grammar.event_rules:
            if isinstance(rule, HoldsRule):
                detections[rule.name] = self._holds(rule, context, detections)
            elif isinstance(rule, SeqRule):
                detections[rule.name] = self._seq(rule, detections)
            else:  # pragma: no cover - parser only yields the two kinds
                raise GrammarError(f"unknown rule type {type(rule).__name__}")
        events = [
            DetectedEvent(start=iv.start, stop=iv.stop, label=name)
            for name, intervals in detections.items()
            for iv in intervals
        ]
        return sorted(events, key=lambda e: (e.start, e.label))

    def _holds(
        self,
        rule: HoldsRule,
        context: TrajectoryContext,
        detections: dict[str, list[Interval]],
    ) -> list[Interval]:
        flags = _evaluate_predicate(rule.predicate, context)
        flags = _bridge(flags, rule.bridge)
        for other in rule.unless:
            for interval in detections.get(other, []):
                flags[interval.start : interval.stop] = False
        candidates = _runs(flags, rule.min_frames)
        accepted = []
        for interval in candidates:
            if self._requires_hold(rule.requires, context, interval):
                accepted.append(interval)
        return accepted

    @staticmethod
    def _requires_hold(
        requires: tuple[AggConstraint, ...],
        context: TrajectoryContext,
        interval: Interval,
    ) -> bool:
        for constraint in requires:
            value = context.aggregate(constraint.fieldname, interval.start, interval.stop)
            if not _compare_scalar(value, constraint.op, constraint.value):
                return False
        return True

    @staticmethod
    def _seq(rule: SeqRule, detections: dict[str, list[Interval]]) -> list[Interval]:
        firsts = detections.get(rule.first, [])
        thens = detections.get(rule.then, [])
        out: list[Interval] = []
        for a in firsts:
            for b in thens:
                gap = a.gap_to(b)
                if 0 <= gap <= rule.within:
                    out.append(a.union_span(b))
        return sorted(set(out))
