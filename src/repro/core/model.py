"""The four-layer COBRA model container.

:class:`CobraModel` is the in-memory meta-index for a *library* of
videos: it assigns identifiers, keeps the layer inventories consistent,
and answers the layer-crossing lookups the query engine needs (events of
a video, objects of a shot, shots of a category...).

Persistence and set-oriented querying live in :mod:`repro.storage`; this
class is the typed object view the extraction pipeline works against.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum
from itertools import islice

from repro.core.entities import Event, ShotRecord, Video, VideoObject

__all__ = ["CobraModel", "Layer"]


class Layer(str, Enum):
    """The four COBRA content layers."""

    RAW = "raw"
    FEATURE = "feature"
    OBJECT = "object"
    EVENT = "event"


class CobraModel:
    """Mutable meta-index over the four COBRA layers."""

    def __init__(self) -> None:
        self._videos: dict[int, Video] = {}
        self._shots: dict[int, ShotRecord] = {}
        self._objects: dict[int, VideoObject] = {}
        self._events: dict[int, Event] = {}
        self._layers = (self._videos, self._shots, self._objects, self._events)
        self._next_id = {Layer.RAW: 1, Layer.FEATURE: 1, Layer.OBJECT: 1, Layer.EVENT: 1}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def _take_id(self, layer: Layer) -> int:
        value = self._next_id[layer]
        self._next_id[layer] = value + 1
        return value

    def add_video(
        self, name: str, fps: float, n_frames: int, match_id: int | None = None
    ) -> Video:
        """Register a raw-layer video and return its record."""
        video = Video(
            video_id=self._take_id(Layer.RAW),
            name=name,
            fps=fps,
            n_frames=n_frames,
            match_id=match_id,
        )
        self._videos[video.video_id] = video
        return video

    def add_shot(
        self,
        video_id: int,
        start: int,
        stop: int,
        category: str,
        features: dict[str, float] | None = None,
    ) -> ShotRecord:
        """Register a feature-layer shot; the video must exist."""
        if video_id not in self._videos:
            raise KeyError(f"unknown video id {video_id}")
        shot = ShotRecord(
            shot_id=self._take_id(Layer.FEATURE),
            video_id=video_id,
            start=start,
            stop=stop,
            category=category,
            features=dict(features or {}),
        )
        self._shots[shot.shot_id] = shot
        return shot

    def add_object(
        self,
        shot_id: int,
        label: str,
        trajectory: list[tuple[float, float] | None],
        dominant_color: tuple[float, float, float] = (0.0, 0.0, 0.0),
        mean_area: float = 0.0,
    ) -> VideoObject:
        """Register an object-layer entity; the shot must exist."""
        if shot_id not in self._shots:
            raise KeyError(f"unknown shot id {shot_id}")
        obj = VideoObject(
            object_id=self._take_id(Layer.OBJECT),
            shot_id=shot_id,
            label=label,
            trajectory=tuple(trajectory),
            dominant_color=dominant_color,
            mean_area=mean_area,
        )
        self._objects[obj.object_id] = obj
        return obj

    def add_event(
        self,
        shot_id: int,
        label: str,
        start: int,
        stop: int,
        confidence: float = 1.0,
        object_id: int | None = None,
    ) -> Event:
        """Register an event-layer entity (video-relative frames)."""
        if shot_id not in self._shots:
            raise KeyError(f"unknown shot id {shot_id}")
        if object_id is not None and object_id not in self._objects:
            raise KeyError(f"unknown object id {object_id}")
        event = Event(
            event_id=self._take_id(Layer.EVENT),
            shot_id=shot_id,
            label=label,
            start=start,
            stop=stop,
            confidence=confidence,
            object_id=object_id,
        )
        self._events[event.event_id] = event
        return event

    def adopt(self, videos=(), shots=(), objects=(), events=(), next_ids=None) -> None:
        """Take in entities that already carry their ids, keeping them.

        The one way an entity with an id enters a model (a staged pass's
        base and merge, a snapshot load).  All rows are checked before
        any is taken in: per layer the ids must increase from the layer's
        counter on (``ValueError`` for a repeated or reused id), and
        every ``video_id`` / ``shot_id`` / ``object_id`` a row names
        must exist here or in the batch (``KeyError``, as the ``add_*``
        methods).  Each counter then resumes past the largest id taken
        in, or at *next_ids* (per layer, :meth:`high_water`'s order)
        when that is further on, so ids handed out and dropped stay
        burned.
        """
        batches = (tuple(videos), tuple(shots), tuple(objects), tuple(events))
        ids = [
            [getattr(row, key) for row in batch]
            for key, batch in zip(("video_id", "shot_id", "object_id", "event_id"), batches)
        ]
        for layer, layer_ids in zip(self._next_id, ids):
            floor = self._next_id[layer]
            for entity_id in layer_ids:
                if entity_id < floor:
                    raise ValueError(f"{layer.value}-layer id {entity_id} repeats or reuses an id")
                floor = entity_id + 1
        shots, objects, events = batches[1:]
        for kind, rows, new, named in (
            ("video", self._videos, ids[0], [s.video_id for s in shots]),
            ("shot", self._shots, ids[1], [r.shot_id for r in (*objects, *events)]),
            ("object", self._objects, ids[2], [e.object_id for e in events]),
        ):
            new = set(new)
            for parent in named:
                if parent is not None and parent not in rows and parent not in new:
                    raise KeyError(f"unknown {kind} id {parent}")
        for i, (layer, rows) in enumerate(zip(self._next_id, self._layers)):
            rows.update(zip(ids[i], batches[i]))
            taken = ids[i][-1] + 1 if ids[i] else 0
            self._next_id[layer] = max(
                self._next_id[layer], taken, next_ids[i] if next_ids is not None else 0
            )

    # Monotone ids in insertion-ordered dicts: "added since" is a tail.

    def high_water(self) -> tuple[int, ...]:
        """Per layer the next id, then the row counts: :meth:`added_since` marks."""
        return (*self._next_id.values(), *self.counts().values())

    def added_since(self, marks: tuple[int, ...]) -> tuple[list, ...] | None:
        """(videos, shots, objects, events) registered since *marks*, in
        id order — O(new entities).  ``None`` when entities were also
        removed since (ids handed out != rows gained): not an append."""
        added = []
        for rows, next_id, first, count in zip(
            self._layers, self._next_id.values(), marks, marks[4:]
        ):
            new = len(rows) - count
            if new != next_id - first:
                return None
            added.append(list(islice(reversed(rows.values()), new))[::-1])
        return tuple(added)

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #

    @property
    def videos(self) -> list[Video]:
        return list(self._videos.values())

    @property
    def shots(self) -> list[ShotRecord]:
        return list(self._shots.values())

    @property
    def objects(self) -> list[VideoObject]:
        return list(self._objects.values())

    @property
    def events(self) -> list[Event]:
        return list(self._events.values())

    def video(self, video_id: int) -> Video:
        return self._videos[video_id]

    def shot(self, shot_id: int) -> ShotRecord:
        return self._shots[shot_id]

    def shots_of(self, video_id: int, category: str | None = None) -> list[ShotRecord]:
        """Shots of a video, optionally filtered by category, in time order."""
        shots = [s for s in self._shots.values() if s.video_id == video_id]
        if category is not None:
            shots = [s for s in shots if s.category == category]
        return sorted(shots, key=lambda s: s.start)

    def objects_of(self, shot_id: int) -> list[VideoObject]:
        return [o for o in self._objects.values() if o.shot_id == shot_id]

    def events_of(
        self, video_id: int | None = None, label: str | None = None
    ) -> list[Event]:
        """Events, optionally restricted to one video and/or one label."""
        events = list(self._events.values())
        if video_id is not None:
            shot_ids = {s.shot_id for s in self._shots.values() if s.video_id == video_id}
            events = [e for e in events if e.shot_id in shot_ids]
        if label is not None:
            events = [e for e in events if e.label == label]
        return sorted(events, key=lambda e: e.start)

    def mark_degraded(self, video_id: int, degraded: bool = True) -> Video:
        """Set (or clear) a video's degraded-indexing flag.

        Entities are immutable records, so the raw-layer entry is
        replaced; the returned record is the current one.
        """
        if video_id not in self._videos:
            raise KeyError(f"unknown video id {video_id}")
        video = replace(self._videos[video_id], degraded=degraded)
        self._videos[video_id] = video
        return video

    def set_video_frames(self, video_id: int, n_frames: int) -> Video:
        """Update a video's frame count (streaming ingest grows it).

        Entities are immutable records, so the raw-layer entry is
        replaced in place; dict order (and hence catalog row order) is
        preserved.
        """
        if video_id not in self._videos:
            raise KeyError(f"unknown video id {video_id}")
        video = replace(self._videos[video_id], n_frames=n_frames)
        self._videos[video_id] = video
        return video

    @property
    def degraded_videos(self) -> list[Video]:
        """Videos committed with incomplete meta-data, by id."""
        return sorted(
            (v for v in self._videos.values() if v.degraded),
            key=lambda v: v.video_id,
        )

    # ------------------------------------------------------------------ #
    # Invalidation (FDE revalidation replaces stale meta-data)
    # ------------------------------------------------------------------ #

    def _shot_ids_of(self, video_id: int) -> set[int]:
        return {s.shot_id for s in self._shots.values() if s.video_id == video_id}

    def clear_events_of_shots(self, shot_ids) -> int:
        """Remove all events of the given shots; returns how many."""
        shot_ids = set(shot_ids)
        doomed = [e for e in self._events.values() if e.shot_id in shot_ids]
        for event in doomed:
            del self._events[event.event_id]
        return len(doomed)

    def clear_objects_of_shots(self, shot_ids) -> int:
        """Remove all objects of the given shots (cascades to their events)."""
        shot_ids = set(shot_ids)
        self.clear_events_of_shots(shot_ids)
        doomed = [o for o in self._objects.values() if o.shot_id in shot_ids]
        for obj in doomed:
            del self._objects[obj.object_id]
        return len(doomed)

    def clear_events_of_video(self, video_id: int) -> int:
        """Remove all events of a video; returns how many were removed."""
        return self.clear_events_of_shots(self._shot_ids_of(video_id))

    def clear_shots_of_video(self, video_id: int, since: int = 0) -> int:
        """Remove the shots of a video starting at or after frame *since*
        (all of them by default); cascades to their objects and events."""
        doomed = [
            s.shot_id for s in self._shots.values() if s.video_id == video_id and s.start >= since
        ]
        self.clear_objects_of_shots(doomed)
        for shot_id in doomed:
            del self._shots[shot_id]
        return len(doomed)

    def ids(self) -> tuple:
        """Per layer the ids held, as live set-like views, in
        :meth:`high_water`'s order."""
        return tuple(rows.keys() for rows in self._layers)

    def discard(self, *ids) -> None:
        """Delete rows by id, per layer in :meth:`high_water`'s order;
        the ids stay burned.  The caller names children with their
        parents (a staged pass's merge removes what its scratch dropped)."""
        for rows, layer_ids in zip(self._layers, ids):
            for entity_id in layer_ids:
                del rows[entity_id]

    def counts(self) -> dict[str, int]:
        """Entity counts per layer (used by reports and tests)."""
        return {layer.value: len(rows) for layer, rows in zip(Layer, self._layers)}
