"""The COBRA video data model — the paper's core contribution.

COBRA ("COntent-Based RetrievAl") distinguishes four layers within video
content, "in line with the latest development in MPEG-7":

1. **raw data** — the video itself (:class:`repro.core.entities.Video`),
2. **feature** — extracted low-level features
   (:class:`repro.core.entities.ShotRecord` and per-frame features),
3. **object** — entities with prominent *spatial* dimensions
   (:class:`repro.core.entities.VideoObject`),
4. **event** — entities with prominent *temporal* dimensions
   (:class:`repro.core.entities.Event`).

The model "is enriched with a few extensions ... object and event
grammars aimed at formalizing the descriptions of high-level concepts,
as well as facilitating their extraction based on spatio-temporal
reasoning":

- :mod:`repro.core.temporal` — intervals and Allen's interval algebra,
- :mod:`repro.core.grammars` — the object/event grammar language
  (tokeniser, parser, AST),
- :mod:`repro.core.inference` — grammar rule evaluation over
  trajectories and observations: the white-box event detector the FDE
  runs, and the :class:`~repro.core.inference.DetectedEvent` intervals
  it emits.
"""

from repro.core.entities import Video, ShotRecord, VideoObject, Event
from repro.core.model import CobraModel, Layer
from repro.core.temporal import Interval, allen_relation, ALLEN_RELATIONS
from repro.core.grammars import ConceptGrammar, parse_grammar, GrammarError
from repro.core.inference import (
    DetectedEvent,
    GrammarEventDetector,
    TrajectoryContext,
)

__all__ = [
    "Video",
    "ShotRecord",
    "VideoObject",
    "Event",
    "CobraModel",
    "Layer",
    "Interval",
    "allen_relation",
    "ALLEN_RELATIONS",
    "ConceptGrammar",
    "parse_grammar",
    "GrammarError",
    "DetectedEvent",
    "GrammarEventDetector",
    "TrajectoryContext",
]
