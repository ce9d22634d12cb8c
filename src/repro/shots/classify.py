"""Shot classification into tennis / close-up / audience / other.

The paper: "The court shots are recognized based on the dominant color.
A shot is classified as close-up, if it contains a significant amount of
skin colored pixels.  For the classification, we also use entropy
characteristics, mean and variance."

Two classifiers over the same features:

- :class:`RuleBasedShotClassifier` — the paper's decision rules, with
  thresholds exposed for the ablation benchmark (E3a).
- :class:`NaiveBayesShotClassifier` — a Gaussian naive-Bayes model
  trained on labelled shots, the natural statistical upgrade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.video.frames import VideoClip
from repro.video.shots import ShotCategory
from repro.vision.color import FrameBlock
from repro.vision.dominant import color_coverage, color_coverages, dominant_color, dominant_colors
from repro.vision.skin import DEFAULT_SKIN_MODEL, SkinColorModel
from repro.vision.stats import frame_statistics, frame_statistics_batch

__all__ = [
    "ShotFeatures",
    "ShotFeatureExtractor",
    "RuleBasedShotClassifier",
    "NaiveBayesShotClassifier",
]

#: Default Australian Open court surface colour (see repro.video.court).
DEFAULT_COURT_COLOR = np.array([40.0, 130.0, 80.0])


@dataclass(frozen=True)
class ShotFeatures:
    """Classification features of one shot.

    All values are averaged over the sampled frames of the shot.

    Attributes:
        court_coverage: fraction of pixels near the reference court colour.
        skin_ratio: fraction of skin-coloured pixels.
        entropy: greyscale intensity entropy (bits).
        mean: mean greyscale intensity.
        variance: greyscale intensity variance.
        dominant: the dominant RGB colour of the shot.
        dominant_coverage: fraction of pixels in the dominant colour cell.
    """

    court_coverage: float
    skin_ratio: float
    entropy: float
    mean: float
    variance: float
    dominant: tuple[float, float, float]
    dominant_coverage: float

    def as_vector(self) -> np.ndarray:
        """Numeric vector for statistical classifiers."""
        return np.array(
            [
                self.court_coverage,
                self.skin_ratio,
                self.entropy,
                self.mean,
                self.variance,
            ],
            dtype=np.float64,
        )

    #: Names aligned with :meth:`as_vector`, used by the ablation bench.
    VECTOR_NAMES = ("court_coverage", "skin_ratio", "entropy", "mean", "variance")


class ShotFeatureExtractor:
    """Compute :class:`ShotFeatures` from the frames of a shot.

    Features are averaged over up to *samples* frames spread uniformly
    through the shot, which smooths over player motion and noise.

    Args:
        court_color: reference court surface RGB; pass the colour estimated
            for the tournament being indexed.
        court_tolerance: Euclidean RGB distance counted as "court".
        skin_model: skin classifier shared with the close-up rule.
        samples: number of frames sampled per shot.
    """

    def __init__(
        self,
        court_color: np.ndarray | None = None,
        court_tolerance: float = 40.0,
        skin_model: SkinColorModel | None = None,
        samples: int = 3,
    ):
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        self.court_color = (
            np.asarray(court_color, dtype=np.float64)
            if court_color is not None
            else DEFAULT_COURT_COLOR.copy()
        )
        self.court_tolerance = court_tolerance
        self.skin_model = skin_model or DEFAULT_SKIN_MODEL
        self.samples = samples

    def sample_indices(self, n_frames: int) -> list[int]:
        """Indices of the frames sampled from a shot of *n_frames* frames."""
        if n_frames < 1:
            raise ValueError("shot must contain at least one frame")
        count = min(self.samples, n_frames)
        # Midpoints of `count` equal segments: avoids transition-adjacent frames.
        return [int((2 * k + 1) * n_frames / (2 * count)) for k in range(count)]

    def sample(self, frames, start: int = 0, stop: int | None = None) -> FrameBlock:
        """The sampled frames of the shot ``frames[start:stop]``, as one block.

        Only the sampled frames are read.  Raises ``ValueError`` unless
        ``0 <= start < stop <= len(frames)``.
        """
        stop = len(frames) if stop is None else stop
        if not 0 <= start < stop <= len(frames):
            raise ValueError(f"invalid shot range [{start}, {stop})")
        return FrameBlock([frames[start + i] for i in self.sample_indices(stop - start)])

    def extract(self, frames: list[np.ndarray]) -> ShotFeatures:
        """Features of a shot given as its list of frames."""
        return self.features(self.sample(frames))

    def features(self, block: FrameBlock) -> ShotFeatures:
        """Features averaged over a block of sampled frames.

        Every vision kernel reads the block's shared per-frame colour
        state; the values are identical to :meth:`extract_reference`.
        """
        court = np.mean(list(color_coverages(block, self.court_color, self.court_tolerance)))
        skin = np.mean(list(self.skin_model.ratios(block)))
        stats = frame_statistics_batch(block)
        dom_colors, dom_covers = zip(*dominant_colors(block))
        dominant = np.mean(np.stack(dom_colors), axis=0)
        return ShotFeatures(
            court_coverage=float(court),
            skin_ratio=float(skin),
            entropy=float(np.mean([s["entropy"] for s in stats])),
            mean=float(np.mean([s["mean"] for s in stats])),
            variance=float(np.mean([s["variance"] for s in stats])),
            dominant=(float(dominant[0]), float(dominant[1]), float(dominant[2])),
            dominant_coverage=float(np.mean(dom_covers)),
        )

    def extract_reference(self, frames: list[np.ndarray]) -> ShotFeatures:
        """Per-frame oracle of :meth:`extract`: the single-frame kernels."""
        picks = [frames[i] for i in self.sample_indices(len(frames))]
        court = np.mean([color_coverage(f, self.court_color, self.court_tolerance) for f in picks])
        skin = np.mean([self.skin_model.ratio(f) for f in picks])
        stats = [frame_statistics(f) for f in picks]
        dom_colors, dom_covers = zip(*(dominant_color(f) for f in picks))
        dominant = np.mean(np.stack(dom_colors), axis=0)
        return ShotFeatures(
            court_coverage=float(court),
            skin_ratio=float(skin),
            entropy=float(np.mean([s["entropy"] for s in stats])),
            mean=float(np.mean([s["mean"] for s in stats])),
            variance=float(np.mean([s["variance"] for s in stats])),
            dominant=(float(dominant[0]), float(dominant[1]), float(dominant[2])),
            dominant_coverage=float(np.mean(dom_covers)),
        )

    def extract_from_clip(self, clip: VideoClip, start: int, stop: int) -> ShotFeatures:
        """Features of the shot occupying ``clip[start:stop]``."""
        return self.features(self.sample(clip, start, stop))


@dataclass
class RuleBasedShotClassifier:
    """The paper's decision rules, in order of precedence.

    1. court colour dominates  -> ``tennis``
    2. significant skin pixels -> ``closeup``
    3. high intensity entropy  -> ``audience``
    4. otherwise               -> ``other``

    Thresholds are fields so the ablation bench can sweep or disable them
    (setting a threshold to ``None`` removes that rule).
    """

    court_coverage_min: float | None = 0.30
    skin_ratio_min: float | None = 0.12
    entropy_min: float | None = 4.2

    def classify(self, features: ShotFeatures) -> str:
        """Map shot features to one of the four categories."""
        if (
            self.court_coverage_min is not None
            and features.court_coverage >= self.court_coverage_min
        ):
            return ShotCategory.TENNIS
        if self.skin_ratio_min is not None and features.skin_ratio >= self.skin_ratio_min:
            return ShotCategory.CLOSEUP
        if self.entropy_min is not None and features.entropy >= self.entropy_min:
            return ShotCategory.AUDIENCE
        return ShotCategory.OTHER


class NaiveBayesShotClassifier:
    """Gaussian naive Bayes over the shot feature vector.

    Fit on labelled :class:`ShotFeatures`; each class is modelled as an
    axis-aligned Gaussian in feature space with a variance floor for
    numerical stability.
    """

    _VAR_FLOOR = 1e-6

    def __init__(self) -> None:
        self.classes_: list[str] = []
        self._means: np.ndarray | None = None
        self._vars: np.ndarray | None = None
        self._log_priors: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._means is not None

    def fit(
        self, features: list[ShotFeatures], labels: list[str]
    ) -> "NaiveBayesShotClassifier":
        """Estimate per-class Gaussians from labelled shots."""
        if len(features) != len(labels):
            raise ValueError("features and labels must have equal length")
        if not features:
            raise ValueError("cannot fit on an empty training set")
        x = np.stack([f.as_vector() for f in features])
        y = np.asarray(labels)
        self.classes_ = sorted(set(labels))
        means, variances, priors = [], [], []
        for cls in self.classes_:
            member = x[y == cls]
            means.append(member.mean(axis=0))
            variances.append(member.var(axis=0) + self._VAR_FLOOR)
            priors.append(len(member) / len(x))
        self._means = np.stack(means)
        self._vars = np.stack(variances)
        self._log_priors = np.log(np.asarray(priors))
        return self

    def log_posteriors(self, features: ShotFeatures) -> np.ndarray:
        """Unnormalised log posterior per class (aligned with ``classes_``)."""
        if not self.is_fitted:
            raise RuntimeError("classifier is not fitted; call fit() first")
        x = features.as_vector()
        log_lik = -0.5 * (
            np.log(2.0 * np.pi * self._vars) + (x - self._means) ** 2 / self._vars
        ).sum(axis=1)
        return self._log_priors + log_lik

    def classify(self, features: ShotFeatures) -> str:
        """Most probable category for *features*."""
        return self.classes_[int(np.argmax(self.log_posteriors(features)))]
