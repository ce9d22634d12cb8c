"""Frame-accurate ground truth for synthetic broadcasts.

Real broadcast video has no machine-readable truth; synthetic video does.
Every generated clip carries a :class:`GroundTruth` recording what the
pipeline is supposed to recover: shot boundaries and categories, gradual
transitions, the tracked player's trajectory, and event intervals.  The
benchmark harness scores detectors against these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ShotTruth", "TransitionTruth", "EventTruth", "GroundTruth"]


@dataclass(frozen=True)
class ShotTruth:
    """One shot in the generated broadcast.

    Attributes:
        start: first frame index of the shot (inclusive).
        stop: one past the last frame (exclusive).
        category: one of ``tennis``, ``closeup``, ``audience``, ``other``.
        trajectory: for tennis shots, the near player's true centroid per
            frame as ``(row, col)`` tuples, aligned with ``range(start, stop)``;
            empty for other categories.
        far_trajectory: the far player's true centroid per frame (tennis only).
    """

    start: int
    stop: int
    category: str
    trajectory: tuple[tuple[float, float], ...] = ()
    far_trajectory: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(f"invalid shot range [{self.start}, {self.stop})")

    @property
    def length(self) -> int:
        return self.stop - self.start

    def contains(self, frame: int) -> bool:
        return self.start <= frame < self.stop


@dataclass(frozen=True)
class TransitionTruth:
    """A transition between consecutive shots.

    Attributes:
        frame: for a ``cut``, the index of the first frame of the new shot;
            for gradual kinds, the first frame of the transition span.
        kind: ``cut``, ``fade`` or ``dissolve``.
        length: number of transition frames (0 for a cut).
    """

    frame: int
    kind: str
    length: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("cut", "fade", "dissolve"):
            raise ValueError(f"unknown transition kind {self.kind!r}")
        if self.kind == "cut" and self.length != 0:
            raise ValueError("a cut has no duration")
        if self.kind != "cut" and self.length <= 0:
            raise ValueError(f"gradual transition needs length > 0, got {self.length}")

    @property
    def span(self) -> tuple[int, int]:
        """Frame range ``[start, stop)`` occupied by the transition."""
        return self.frame, self.frame + max(self.length, 1)


@dataclass(frozen=True)
class EventTruth:
    """A semantic event realised by a scripted trajectory.

    Attributes:
        start: first frame of the event (inclusive, clip coordinates).
        stop: one past the last frame.
        label: event name (``net_play``, ``rally``, ``service``, ``baseline_play``).
        shot_index: index of the enclosing shot in ``GroundTruth.shots``.
    """

    start: int
    stop: int
    label: str
    shot_index: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(f"invalid event range [{self.start}, {self.stop})")

    def overlap(self, start: int, stop: int) -> int:
        """Number of frames shared with ``[start, stop)``."""
        return max(0, min(self.stop, stop) - max(self.start, start))


@dataclass
class GroundTruth:
    """Everything the pipeline should recover from one clip."""

    shots: list[ShotTruth] = field(default_factory=list)
    transitions: list[TransitionTruth] = field(default_factory=list)
    events: list[EventTruth] = field(default_factory=list)

    @property
    def cut_frames(self) -> list[int]:
        """Frame indices of hard cuts (first frame of each new shot)."""
        return [t.frame for t in self.transitions if t.kind == "cut"]

    @property
    def gradual_spans(self) -> list[tuple[int, int]]:
        """Frame ranges of gradual transitions."""
        return [t.span for t in self.transitions if t.kind != "cut"]

    def shot_at(self, frame: int) -> ShotTruth | None:
        """The shot containing *frame*, or ``None`` if inside a transition."""
        for shot in self.shots:
            if shot.contains(frame):
                return shot
        return None

    def category_at(self, frame: int) -> str | None:
        shot = self.shot_at(frame)
        return shot.category if shot else None

    def validate(self, total_frames: int) -> None:
        """Sanity-check internal consistency against the clip length."""
        for shot in self.shots:
            if shot.stop > total_frames:
                raise ValueError(f"shot {shot} exceeds clip length {total_frames}")
            if shot.category == "tennis" and len(shot.trajectory) != shot.length:
                raise ValueError(
                    f"tennis shot [{shot.start},{shot.stop}) has "
                    f"{len(shot.trajectory)} trajectory points, expected {shot.length}"
                )
        for event in self.events:
            if event.stop > total_frames:
                raise ValueError(f"event {event} exceeds clip length {total_frames}")
            if not 0 <= event.shot_index < len(self.shots):
                raise ValueError(f"event {event} references unknown shot")
