"""Shot segmentation and classification — the paper's *segment detector*.

The paper: "this detector ... segments the video into different shots.
The shot boundaries are detected using differences in color histograms of
neighboring frames.  The same algorithm encapsulates shot classification.
It classifies shots in four different categories: tennis, close-up,
audience, and other."

- :mod:`repro.shots.boundary` — histogram-difference cut detection
  (fixed threshold) plus the twin-comparison detector for
  gradual transitions.
- :mod:`repro.shots.classify` — the four-way shot classifier using
  dominant colour, skin ratio, entropy, mean and variance (rule-based and
  Gaussian naive-Bayes variants).
- :mod:`repro.shots.segmenter` — the facade combining both, yielding
  classified shots for the FDE.
- :mod:`repro.shots.evaluate` — precision/recall scoring against ground
  truth, used by the benchmarks.
"""

from repro.shots.boundary import (
    Boundary,
    frame_distances,
    frame_distances_reference,
    ThresholdCutDetector,
    TwinComparisonDetector,
)
from repro.shots.classify import (
    ShotFeatureExtractor,
    ShotFeatures,
    RuleBasedShotClassifier,
    NaiveBayesShotClassifier,
)
from repro.shots.segmenter import DetectedShot, SegmentDetector
from repro.shots.evaluate import boundary_scores, confusion_matrix, MatchResult
from repro.shots.keyframes import keyframe_index

__all__ = [
    "Boundary",
    "frame_distances",
    "frame_distances_reference",
    "ThresholdCutDetector",
    "TwinComparisonDetector",
    "ShotFeatureExtractor",
    "ShotFeatures",
    "RuleBasedShotClassifier",
    "NaiveBayesShotClassifier",
    "DetectedShot",
    "SegmentDetector",
    "boundary_scores",
    "confusion_matrix",
    "MatchResult",
    "keyframe_index",
]
