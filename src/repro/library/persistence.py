"""Meta-index persistence for the library.

Indexing video is the expensive step; this module saves the populated
COBRA meta-index to disk (via the column store's catalogue format) and
restores it, so a library survives process restarts without
re-extraction.  Trajectories are stored per object as flat per-frame
rows — the column store has no nested types, as a 2002 DBMS had none.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.entities import Event, ShotRecord, Video, VideoObject
from repro.core.model import CobraModel
from repro.storage.catalog import Catalog
from repro.storage.persist import load_catalog, save_catalog, tables_document

__all__ = [
    "model_to_catalog",
    "catalog_to_model",
    "runner_state_to_catalog",
    "catalog_to_runner_state",
    "stream_state_to_catalog",
    "catalog_to_stream_state",
    "save_model",
    "model_delta",
    "load_model",
    "load_model_with_ann",
    "RUNNER_STATE_TABLE",
    "STREAM_STATE_TABLE",
]

#: Table holding persisted :class:`~repro.grammar.runtime.DetectorRunner`
#: quarantine state, stored next to the meta-index tables.
RUNNER_STATE_TABLE = "runner_state"

#: Table holding in-flight streaming-ingest resume state, one row per
#: live stream.  Finished streams drop their row, so a snapshot of a
#: fully-ingested library carries no ``stream_state`` table and is
#: byte-identical to a batch-indexed one.
STREAM_STATE_TABLE = "stream_state"


def model_to_catalog(model: CobraModel) -> Catalog:
    """Materialise a meta-index as relational tables (lossless)."""
    return _entity_tables(model.videos, model.shots, model.objects, model.events)


def _entity_tables(all_videos, all_shots, all_objects, all_events) -> Catalog:
    """The meta-index tables holding exactly the given entities (the
    whole model for a snapshot, one chunk's additions for a delta)."""
    catalog = Catalog()

    videos = catalog.create_table(
        "videos",
        {
            "video_id": "int",
            "name": "str",
            "fps": "float",
            "n_frames": "int",
            "has_match": "bool",
            "match_id": "int",
            "degraded": "bool",
        },
    )
    for video in all_videos:
        # NULL-ness is an explicit flag, not a -1 sentinel: any int is a
        # legal match_id, and None must come back as None.
        videos.append(
            {
                "video_id": video.video_id,
                "name": video.name,
                "fps": video.fps,
                "n_frames": video.n_frames,
                "has_match": video.match_id is not None,
                "match_id": video.match_id if video.match_id is not None else 0,
                "degraded": video.degraded,
            }
        )

    shots = catalog.create_table(
        "shots",
        {"shot_id": "int", "video_id": "int", "start": "int", "stop": "int", "category": "str"},
    )
    shot_features = catalog.create_table(
        "shot_features", {"shot_id": "int", "name": "str", "value": "float"}
    )
    for shot in all_shots:
        shots.append(
            {
                "shot_id": shot.shot_id,
                "video_id": shot.video_id,
                "start": shot.start,
                "stop": shot.stop,
                "category": shot.category,
            }
        )
        for name, value in sorted(shot.features.items()):
            shot_features.append({"shot_id": shot.shot_id, "name": name, "value": value})

    objects = catalog.create_table(
        "objects",
        {
            "object_id": "int",
            "shot_id": "int",
            "label": "str",
            "r": "float",
            "g": "float",
            "b": "float",
            "mean_area": "float",
        },
    )
    trajectories = catalog.create_table(
        "trajectories",
        {"object_id": "int", "frame": "int", "found": "bool", "row": "float", "col": "float"},
    )
    for obj in all_objects:
        objects.append(
            {
                "object_id": obj.object_id,
                "shot_id": obj.shot_id,
                "label": obj.label,
                "r": obj.dominant_color[0],
                "g": obj.dominant_color[1],
                "b": obj.dominant_color[2],
                "mean_area": obj.mean_area,
            }
        )
        for frame, position in enumerate(obj.trajectory):
            trajectories.append(
                {
                    "object_id": obj.object_id,
                    "frame": frame,
                    "found": position is not None,
                    "row": position[0] if position else 0.0,
                    "col": position[1] if position else 0.0,
                }
            )

    events = catalog.create_table(
        "events",
        {
            "event_id": "int",
            "shot_id": "int",
            "label": "str",
            "start": "int",
            "stop": "int",
            "confidence": "float",
            "object_id": "int",
        },
    )
    for event in all_events:
        events.append(
            {
                "event_id": event.event_id,
                "shot_id": event.shot_id,
                "label": event.label,
                "start": event.start,
                "stop": event.stop,
                "confidence": event.confidence,
                "object_id": event.object_id if event.object_id is not None else -1,
            }
        )
    return catalog


def catalog_to_model(catalog: Catalog) -> CobraModel:
    """Rebuild a meta-index from :func:`model_to_catalog` tables.

    Every entity keeps its stored id, so load and save are inverse
    (:meth:`CobraModel.adopt` checks the rows: a repeated id raises
    ``ValueError``, a dangling parent id ``KeyError``).  Next ids are
    not stored: each layer's counter resumes at its largest stored id
    + 1, below any ids the saving model had burned after it.
    """
    features_by_shot: dict[int, dict[str, float]] = {}
    for row in catalog.table("shot_features").scan():
        features_by_shot.setdefault(row["shot_id"], {})[row["name"]] = row["value"]
    points_by_object: dict[int, list] = {}
    for row in catalog.table("trajectories").scan():
        points_by_object.setdefault(row["object_id"], []).append(row)

    def rows(name: str, key: str) -> list[dict]:
        return sorted(catalog.table(name).scan(), key=lambda row: row[key])

    def trajectory(object_id: int) -> tuple:
        points = sorted(points_by_object.get(object_id, []), key=lambda p: p["frame"])
        return tuple((p["row"], p["col"]) if p["found"] else None for p in points)

    model = CobraModel()
    model.adopt(
        videos=[
            Video(
                video_id=row["video_id"],
                name=row["name"],
                fps=row["fps"],
                n_frames=row["n_frames"],
                # Files written before the has_match flag used a -1 sentinel.
                match_id=row["match_id"] if row.get("has_match", row["match_id"] >= 0) else None,
                # Files written before degraded indexing existed lack the column.
                degraded=bool(row.get("degraded")),
            )
            for row in rows("videos", "video_id")
        ],
        shots=[
            ShotRecord(**row, features=features_by_shot.get(row["shot_id"], {}))
            for row in rows("shots", "shot_id")
        ],
        objects=[
            VideoObject(
                object_id=row["object_id"],
                shot_id=row["shot_id"],
                label=row["label"],
                trajectory=trajectory(row["object_id"]),
                dominant_color=(row["r"], row["g"], row["b"]),
                mean_area=row["mean_area"],
            )
            for row in rows("objects", "object_id")
        ],
        events=[
            Event(**row | {"object_id": row["object_id"] if row["object_id"] >= 0 else None})
            for row in rows("events", "event_id")
        ],
    )
    return model


def runner_state_to_catalog(state: dict, catalog: Catalog) -> None:
    """Materialise detector-runner quarantine state as a table.

    *state* is :meth:`~repro.grammar.runtime.DetectorRunner.export_state`
    output.  The table lives next to the meta-index tables so one
    snapshot carries both the data and the health bookkeeping.
    """
    table = catalog.create_table(
        RUNNER_STATE_TABLE,
        {
            "detector": "str",
            "consecutive_failures": "int",
            "quarantined": "bool",
            "quarantined_version": "int",
        },
    )
    failures = state.get("consecutive_failures", {})
    versions = state.get("quarantined_version", {})
    for name in sorted(set(failures) | set(versions)):
        version = versions.get(name)
        table.append(
            {
                "detector": name,
                "consecutive_failures": int(failures.get(name, 0)),
                "quarantined": version is not None,
                "quarantined_version": int(version) if version is not None else 0,
            }
        )


def catalog_to_runner_state(catalog: Catalog) -> dict | None:
    """Rebuild runner state from :func:`runner_state_to_catalog`'s table.

    Returns:
        A dict :meth:`~repro.grammar.runtime.DetectorRunner.restore_state`
        accepts, or ``None`` when the snapshot predates runner-state
        persistence (no ``runner_state`` table).
    """
    if RUNNER_STATE_TABLE not in catalog:
        return None
    failures: dict[str, int] = {}
    versions: dict[str, int] = {}
    for row in catalog.table(RUNNER_STATE_TABLE).scan():
        if row["consecutive_failures"]:
            failures[row["detector"]] = row["consecutive_failures"]
        if row["quarantined"]:
            versions[row["detector"]] = row["quarantined_version"]
    return {"consecutive_failures": failures, "quarantined_version": versions}


def stream_state_to_catalog(states: list[dict], catalog: Catalog) -> None:
    """Materialise in-flight streaming resume state as a table.

    Each row is a :meth:`~repro.streaming.session.StreamSession.export_state`
    dict: the stream name, last committed chunk ``seq``, the exactly-once
    ``watermark`` (re-feed frames from here), the boundary-scan
    ``scan_base`` (raw boundary events before it are already committed
    and must be suppressed on resume), and cumulative frame/shot totals.
    """
    table = catalog.create_table(
        STREAM_STATE_TABLE,
        {
            "stream": "str",
            "seq": "int",
            "watermark": "int",
            "scan_base": "int",
            "frames": "int",
            "shots": "int",
        },
    )
    for state in states:
        table.append(
            {
                "stream": state["stream"],
                "seq": int(state["seq"]),
                "watermark": int(state["watermark"]),
                "scan_base": int(state["scan_base"]),
                "frames": int(state["frames"]),
                "shots": int(state["shots"]),
            }
        )


def catalog_to_stream_state(catalog: Catalog) -> dict[str, dict]:
    """Rebuild stream resume state, keyed by stream name (empty when the
    snapshot has no in-flight streams)."""
    if STREAM_STATE_TABLE not in catalog:
        return {}
    return {row["stream"]: dict(row) for row in catalog.table(STREAM_STATE_TABLE).scan()}


def save_model(
    model: CobraModel,
    path: str | Path,
    runner_state: dict | None = None,
    ann: tuple | None = None,
    stream_state: list[dict] | None = None,
) -> None:
    """Atomically snapshot a meta-index (plus optional runner state).

    Args:
        model: the meta-index to save.
        path: snapshot path (written atomically; see
            :func:`repro.storage.persist.save_catalog`).
        runner_state: optional
            :meth:`~repro.grammar.runtime.DetectorRunner.export_state`
            output, persisted in the ``runner_state`` table so detector
            quarantine survives restarts.
        ann: optional ``(AnnIndex, shot_meta)`` pair, persisted as the
            checksummed ``ann_*`` tables (see :mod:`repro.ir.ann`) so
            the query-by-example index rides the same snapshot and is
            validated by ``repro fsck``.
        stream_state: in-flight streaming resume rows (see
            :func:`stream_state_to_catalog`); omitted when empty so
            finished ingests leave batch-identical snapshots.
    """
    catalog = model_to_catalog(model)
    _state_tables(catalog, runner_state, stream_state)
    if ann is not None:
        from repro.ir.ann import export_ann_to_catalog

        index, shot_meta = ann
        export_ann_to_catalog(index, shot_meta, catalog)
    save_catalog(catalog, path)


def _state_tables(catalog: Catalog, runner_state, stream_state) -> None:
    if runner_state is not None:
        runner_state_to_catalog(runner_state, catalog)
    if stream_state:
        stream_state_to_catalog(stream_state, catalog)


def model_delta(
    model: CobraModel, marks: tuple, touched=(), runner_state=None, stream_state=None
) -> dict | None:
    """What :func:`save_model` would write beyond a snapshot taken at
    *marks* (:meth:`CobraModel.high_water`) as one ``DeltaLog`` record —
    O(additions): the rows of the entities registered since, the
    ``n_frames`` and ``degraded`` cells of the *touched* video ids, the
    state tables whole.  ``None`` when entities were removed since (save
    a snapshot instead).
    """
    added = model.added_since(marks)
    if added is None:
        return None
    small = Catalog()
    _state_tables(small, runner_state, stream_state)
    return {
        "rows": {
            name: table["columns"]
            for name, table in tables_document(_entity_tables(*added)).items()
            if any(table["columns"].values())
        },
        "cells": [
            ["videos", "video_id", video.video_id, column, getattr(video, column)]
            for video in map(model.video, touched)
            for column in ("n_frames", "degraded")
        ],
        "tables": {STREAM_STATE_TABLE: None, **tables_document(small)},
    }


def load_model(path: str | Path) -> CobraModel:
    """Load a meta-index saved by :func:`save_model`."""
    return catalog_to_model(load_catalog(path))


def load_model_with_ann(path: str | Path):
    """Load a meta-index plus its ANN snapshot, if one was saved.

    Returns ``(model, ann)`` where ``ann`` is the ``(AnnIndex,
    shot_meta)`` pair or ``None`` when the snapshot carries no ANN
    tables.  Raises :class:`repro.ir.ann.AnnSnapshotError` when the
    tables exist but fail validation — corruption is a typed error,
    never a silently wrong index.
    """
    from repro.ir.ann import has_ann_tables, load_ann_from_catalog

    catalog = load_catalog(path)
    ann = load_ann_from_catalog(catalog) if has_ann_tables(catalog) else None
    return catalog_to_model(catalog), ann
