"""Temporal intervals and Allen's interval algebra.

Event-layer entities "are characterized by prominent temporal
dimensions"; the event grammars reason about how their intervals relate.
Allen's thirteen relations are the standard vocabulary for that
reasoning.

Intervals are half-open frame ranges ``[start, stop)``, matching the
shot and event conventions used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Interval", "allen_relation", "ALLEN_RELATIONS", "invert_relation"]

#: The thirteen Allen relations (seven base + six inverses; equals is its
#: own inverse).
ALLEN_RELATIONS = (
    "before",
    "meets",
    "overlaps",
    "starts",
    "during",
    "finishes",
    "equals",
    "after",
    "met_by",
    "overlapped_by",
    "started_by",
    "contains",
    "finished_by",
)

_INVERSES = {
    "before": "after",
    "meets": "met_by",
    "overlaps": "overlapped_by",
    "starts": "started_by",
    "during": "contains",
    "finishes": "finished_by",
    "equals": "equals",
}
_INVERSES.update({v: k for k, v in _INVERSES.items()})


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open frame interval ``[start, stop)``."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError(f"empty interval [{self.start}, {self.stop})")

    @property
    def length(self) -> int:
        return self.stop - self.start

    def union_span(self, other: "Interval") -> "Interval":
        """Smallest interval covering both (even if disjoint)."""
        return Interval(min(self.start, other.start), max(self.stop, other.stop))

    def gap_to(self, other: "Interval") -> int:
        """Frames between this interval's end and *other*'s start (may be < 0)."""
        return other.start - self.stop

    def shifted(self, offset: int) -> "Interval":
        return Interval(self.start + offset, self.stop + offset)


def allen_relation(a: Interval, b: Interval) -> str:
    """The unique Allen relation holding between intervals *a* and *b*.

    Uses the half-open convention: ``a meets b`` iff ``a.stop == b.start``.
    """
    if a.stop < b.start:
        return "before"
    if a.stop == b.start:
        return "meets"
    if b.stop < a.start:
        return "after"
    if b.stop == a.start:
        return "met_by"
    if a.start == b.start and a.stop == b.stop:
        return "equals"
    if a.start == b.start:
        return "starts" if a.stop < b.stop else "started_by"
    if a.stop == b.stop:
        return "finishes" if a.start > b.start else "finished_by"
    if b.start < a.start and a.stop < b.stop:
        return "during"
    if a.start < b.start and b.stop < a.stop:
        return "contains"
    return "overlaps" if a.start < b.start else "overlapped_by"


def invert_relation(relation: str) -> str:
    """The Allen relation of (b, a) given the relation of (a, b)."""
    if relation not in _INVERSES:
        raise ValueError(f"unknown Allen relation {relation!r}")
    return _INVERSES[relation]
