"""The tennis feature grammar (Figure 1) and its detectors.

"A tennis feature grammar with rules that describe the execution order
of and dependencies between several feature, object or event extraction
algorithms has been developed (see Figure 1)."

The chain the paper describes:

1. **segment** — shot boundaries from colour-histogram differences and
   four-way shot classification (tennis / close-up / audience / other);
2. **tennis** — for shots classified tennis: player segmentation from
   court colour statistics and predict-and-search tracking;
3. **shape** — per-object shape features (mass centre, area, bounding
   box, orientation, eccentricity) and dominant colour;
4. **rules** (white box) — spatio-temporal event rules (net play, rally,
   service, baseline play) evaluated by the COBRA grammar engine.

``build_tennis_fde`` wires these concrete implementations to the
grammar and returns a ready engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.defaults import tennis_grammar
from repro.core.inference import GrammarEventDetector
from repro.core.model import CobraModel
from repro.events.quantize import CourtZones
from repro.grammar.detectors import DetectorRegistry, IndexingContext
from repro.grammar.fde import FeatureDetectorEngine
from repro.grammar.grammar import FeatureGrammar, parse_feature_grammar
from repro.shots.boundary import TwinComparisonDetector
from repro.shots.segmenter import DetectedShot, SegmentDetector
from repro.tracking.tracker import PlayerTracker, Track
from repro.video.shots import ShotCategory

__all__ = [
    "TENNIS_FEATURE_GRAMMAR",
    "TrackedPlayer",
    "build_tennis_fde",
    "shot_features_dict",
    "track_shot_player",
    "player_shape_summary",
    "detect_player_events",
]

TENNIS_FEATURE_GRAMMAR = """
FEATURE GRAMMAR tennis ;

# The segment detector is implemented externally (black box): it finds
# shot boundaries with colour-histogram differences and classifies each
# shot as tennis / close-up / audience / other.
DETECTOR segment BLACK : video -> shot ;

# The tennis detector runs only on shots classified as tennis: initial
# quadratic segmentation from court colour statistics, then
# predict-and-search tracking of the player.
DETECTOR tennis BLACK : shot WHEN category = tennis -> player ;

# Shape features of the segmented player's binary representation.
DETECTOR shape BLACK : player -> shape ;

# Spatio-temporal event rules (white box: interpreted grammar rules).
DETECTOR rules WHITE : player, shape -> event ;
"""


@dataclass
class TrackedPlayer:
    """The ``player`` token: one tracked player per tennis shot."""

    shot: DetectedShot
    shot_id: int
    object_id: int
    track: Track
    zones: CourtZones | None


def shot_features_dict(shot: DetectedShot) -> dict[str, float]:
    """The feature-layer attribute dict stored for a detected shot."""
    return {
        "court_coverage": shot.features.court_coverage,
        "skin_ratio": shot.features.skin_ratio,
        "entropy": shot.features.entropy,
        "mean": shot.features.mean,
        "variance": shot.features.variance,
    }


def track_shot_player(
    model: CobraModel,
    frames,
    shot: DetectedShot,
    shot_id: int,
    tracker: PlayerTracker,
    far_tracker: PlayerTracker | None = None,
) -> TrackedPlayer:
    """Track the player(s) of one tennis shot and register the objects.

    The ``tennis`` detector's per-shot body, for a clip's shots and a
    stream's alike: near player first (the ``player`` object drives
    events), then the optional far player.  The court (colour model +
    bounds) is estimated once per shot, with the near tracker's
    threshold, and shared by both tracks and the zones.
    """
    court = tracker.estimate_court(frames[0])
    track = tracker.track(frames, court=court)
    zones = CourtZones.from_court_bounds(court[1]) if court[1] else None
    obj = model.add_object(
        shot_id,
        label="player",
        trajectory=track.positions,
    )
    if far_tracker is not None:
        far_track = far_tracker.track(frames, court=court)
        model.add_object(
            shot_id,
            label="player_far",
            trajectory=far_track.positions,
        )
    return TrackedPlayer(
        shot=shot,
        shot_id=shot_id,
        object_id=obj.object_id,
        track=track,
        zones=zones,
    )


def player_shape_summary(player: TrackedPlayer) -> dict:
    """Aggregate shape statistics of one tracked player."""
    observations = [
        p.observation for p in player.track.points if p.observation is not None
    ]
    if observations:
        areas = [o.shape.area for o in observations]
        colors = np.array([o.dominant_color for o in observations])
        return {
            "object_id": player.object_id,
            "mean_area": float(np.mean(areas)),
            "mean_eccentricity": float(
                np.mean([o.shape.eccentricity for o in observations])
            ),
            "mean_aspect_ratio": float(
                np.mean([o.shape.aspect_ratio for o in observations])
            ),
            "dominant_color": tuple(colors.mean(axis=0)),
        }
    return {
        "object_id": player.object_id,
        "mean_area": 0.0,
        "mean_eccentricity": 0.0,
        "mean_aspect_ratio": 0.0,
        "dominant_color": (0.0, 0.0, 0.0),
    }


def detect_player_events(model: CobraModel, player: TrackedPlayer, grammar) -> list:
    """Run the event grammar over one player's trajectory and register
    the resulting event-layer entities."""
    if player.zones is None:
        return []
    detector = GrammarEventDetector(grammar, player.zones)
    events = []
    for detected in detector.detect(player.track.positions):
        event = model.add_event(
            player.shot_id,
            label=detected.label,
            start=player.shot.start + detected.start,
            stop=player.shot.start + detected.stop,
            confidence=detected.confidence,
            object_id=player.object_id,
        )
        events.append(event)
    return events


def _shot_frames(video, shot: DetectedShot) -> list:
    """The frames of *shot*, read from the pass's ``video`` token.

    A whole clip is sliced ``[shot.start:shot.stop]`` — the same frame
    objects the segmenter emits for it.  A stream's
    :class:`~repro.streaming.segmenter.SegmentChunk` hands over the
    frames its ``segment`` run emitted (the shot may span earlier
    chunks).  Either way the frames live only as long as the pass: the
    axiom token is never cached.
    """
    # Imported here: repro.streaming imports the library, which imports this module.
    from repro.streaming.segmenter import SegmentChunk

    if isinstance(video, SegmentChunk):
        return video.shot_frames[shot.start]
    return video[shot.start : shot.stop]


def _segment_impl(segmenter: SegmentDetector):
    """Build the segment detector: one chunk -> classified shots + ShotRecords.

    The one body of both ingest paths is the incremental step: the
    ``video`` token is read as a
    :class:`~repro.streaming.segmenter.SegmentChunk` (a clip is the
    final chunk of a fresh segmenter), its frames go into a fork of the
    chunk's segmenter, and the shots they finalise are registered.  A
    retry re-forks and first drops the shots at or after the fork's
    watermark — the previous attempt's, or for a clip every shot of the
    video — so it neither re-pushes frames nor doubles a shot.  Each
    ``shot`` token entry is ``(shot, shot_id)``: the token is cached per
    video, so it holds no frame (:func:`_shot_frames` reads them).
    """
    # Imported here: repro.streaming imports the library, which imports this module.
    from repro.streaming.segmenter import SegmentChunk

    def run(context: IndexingContext) -> None:
        chunk = SegmentChunk.of(context.require("video"), segmenter)
        stream = chunk.segmenter.fork()
        model = context.model
        model.clear_shots_of_video(context.video_id, since=stream.watermark)
        emitted = stream.push(chunk.frames, start=chunk.start)
        if chunk.final:
            emitted += stream.finalize()
        shots = []
        for shot, _frames in emitted:
            record = model.add_shot(
                context.video_id,
                start=shot.start,
                stop=shot.stop,
                category=shot.category,
                features=shot_features_dict(shot),
            )
            shots.append((shot, record.shot_id))
        context.tokens["shot"] = shots
        chunk.advanced = stream
        chunk.shot_frames = {shot.start: frames for shot, frames in emitted}

    return run


def _tennis_impl(tracker: PlayerTracker, far_tracker: PlayerTracker | None = None):
    """Build the tennis detector: tennis shots -> tracked players.

    With *far_tracker* set, the far-court player is tracked too and
    registered as a second object-layer entity (``player_far``); events
    remain driven by the near player, the broadcast's primary subject.
    Only the objects of the token's shots are cleared on entry, so a
    stream's parse of its newest shots keeps every earlier shot's.
    """

    def run(context: IndexingContext) -> None:
        shots = context.require("shot")
        video = context.require("video")
        context.model.clear_objects_of_shots(shot_id for _, shot_id in shots)
        context.tokens["player"] = [
            track_shot_player(
                context.model, _shot_frames(video, shot), shot, shot_id, tracker, far_tracker
            )
            for shot, shot_id in shots
            if shot.category == ShotCategory.TENNIS
        ]

    return run


def _shape_impl():
    """Build the shape detector: aggregate per-track shape statistics."""

    def run(context: IndexingContext) -> None:
        context.tokens["shape"] = [
            player_shape_summary(player) for player in context.require("player")
        ]

    return run


def _rules_impl(concept_grammar=None):
    """Build the white-box event detector: grammar rules over trajectories."""
    grammar = concept_grammar or tennis_grammar()

    def run(context: IndexingContext) -> None:
        players = context.require("player")
        context.model.clear_events_of_shots(player.shot_id for player in players)
        events = []
        for player in players:
            events.extend(detect_player_events(context.model, player, grammar))
        context.tokens["event"] = events

    return run


def build_tennis_fde(
    model: CobraModel | None = None,
    segmenter: SegmentDetector | None = None,
    tracker: PlayerTracker | None = None,
    concept_grammar=None,
    track_far: bool = False,
    policy=None,
    runner=None,
) -> FeatureDetectorEngine:
    """Construct the tennis FDE with default (or supplied) detectors.

    Args:
        model: the meta-index to populate.
        segmenter: segment detector override (defaults to the
            twin-comparison boundary detector + rule classifier).
        tracker: player tracker override.
        concept_grammar: COBRA event grammar override.
        track_far: also track the far-court player (a second
            object-layer entity per tennis shot).
        policy: fault-tolerance :class:`~repro.grammar.runtime.RunPolicy`
            (default fail-fast, no retries).
        runner: :class:`~repro.grammar.runtime.DetectorRunner` factory
            taking the registry (e.g. ``lambda reg: DetectorRunner(reg,
            policy, clock=fake, sleep=fake.sleep)``); overrides *policy*.

    Returns:
        A ready :class:`~repro.grammar.fde.FeatureDetectorEngine`.
    """
    grammar: FeatureGrammar = parse_feature_grammar(TENNIS_FEATURE_GRAMMAR)
    registry = DetectorRegistry()
    segmenter = segmenter or SegmentDetector(boundary_detector=TwinComparisonDetector())
    registry.register("segment", _segment_impl(segmenter), kind="black")
    far_tracker = PlayerTracker(half="far", min_area=8) if track_far else None
    registry.register(
        "tennis",
        _tennis_impl(tracker or PlayerTracker(), far_tracker=far_tracker),
        kind="black",
    )
    registry.register("shape", _shape_impl(), kind="black")
    registry.register("rules", _rules_impl(concept_grammar), kind="white")
    engine = FeatureDetectorEngine(
        grammar,
        registry,
        model=model,
        policy=policy,
        runner=runner(registry) if runner is not None else None,
    )
    engine.segmenter = segmenter
    return engine
