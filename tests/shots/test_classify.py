"""Shot classification tests."""

import numpy as np
import pytest

from repro.shots.boundary import TwinComparisonDetector
from repro.shots.classify import (
    NaiveBayesShotClassifier,
    RuleBasedShotClassifier,
    ShotFeatureExtractor,
    ShotFeatures,
)
from repro.shots.segmenter import SegmentDetector
from repro.video.court import CourtStyle
from repro.video.generator import BroadcastConfig, BroadcastGenerator
from repro.video.shots import (
    AudienceSpec,
    CloseUpSpec,
    CourtShotSpec,
    OtherSpec,
    ShotCategory,
)

H, W, SIGMA = 96, 128, 6.0


def render(spec, rng):
    return spec.render(H, W, rng, SIGMA).frames


def features_of(spec, rng, extractor=None):
    return (extractor or ShotFeatureExtractor()).extract(render(spec, rng))


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def make_features(**overrides):
    base = dict(
        court_coverage=0.0,
        skin_ratio=0.0,
        entropy=2.0,
        mean=100.0,
        variance=500.0,
        dominant=(0.0, 0.0, 0.0),
        dominant_coverage=0.5,
    )
    base.update(overrides)
    return ShotFeatures(**base)


class TestExtractor:
    def test_sample_indices_spread(self):
        extractor = ShotFeatureExtractor(samples=3)
        indices = extractor.sample_indices(60)
        assert indices == [10, 30, 50]

    def test_sample_indices_short_shot(self):
        extractor = ShotFeatureExtractor(samples=3)
        assert extractor.sample_indices(2) == [0, 1]

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            ShotFeatureExtractor(samples=0)

    def test_court_shot_features(self, rng):
        feats = features_of(CourtShotSpec(n_frames=15), rng)
        assert feats.court_coverage > 0.35
        assert feats.skin_ratio < 0.05

    def test_closeup_features(self, rng):
        feats = features_of(CloseUpSpec(n_frames=10), rng)
        assert feats.skin_ratio > 0.15
        assert feats.court_coverage < 0.05

    def test_extract_from_clip_range_checked(self, broadcast):
        clip, _ = broadcast
        extractor = ShotFeatureExtractor()
        with pytest.raises(ValueError):
            extractor.extract_from_clip(clip, 10, 5)


class TestRuleBasedClassifier:
    def test_priority_order(self):
        classifier = RuleBasedShotClassifier()
        assert classifier.classify(make_features(court_coverage=0.5)) == ShotCategory.TENNIS
        assert classifier.classify(make_features(skin_ratio=0.3)) == ShotCategory.CLOSEUP
        assert classifier.classify(make_features(entropy=5.0)) == ShotCategory.AUDIENCE
        assert classifier.classify(make_features()) == ShotCategory.OTHER

    def test_court_beats_skin(self):
        classifier = RuleBasedShotClassifier()
        feats = make_features(court_coverage=0.5, skin_ratio=0.5)
        assert classifier.classify(feats) == ShotCategory.TENNIS

    def test_disabled_rule_falls_through(self):
        classifier = RuleBasedShotClassifier(court_coverage_min=None)
        feats = make_features(court_coverage=0.9, entropy=5.0)
        assert classifier.classify(feats) == ShotCategory.AUDIENCE

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (CourtShotSpec(n_frames=15), ShotCategory.TENNIS),
            (CloseUpSpec(n_frames=10), ShotCategory.CLOSEUP),
            (AudienceSpec(n_frames=10), ShotCategory.AUDIENCE),
            (OtherSpec(n_frames=10), ShotCategory.OTHER),
        ],
    )
    def test_classifies_rendered_shots(self, spec, expected, rng):
        feats = features_of(spec, rng)
        assert RuleBasedShotClassifier().classify(feats) == expected


class TestNaiveBayes:
    def _training_set(self, rng, per_class=6):
        """Labelled shots across the camera gain range (as a broadcast has)."""
        feats, labels = [], []
        for make_spec, label in (
            (lambda g: CourtShotSpec(n_frames=12, gain=g), ShotCategory.TENNIS),
            (lambda g: CloseUpSpec(n_frames=10, gain=g), ShotCategory.CLOSEUP),
            (lambda g: AudienceSpec(n_frames=10, gain=g), ShotCategory.AUDIENCE),
            (lambda g: OtherSpec(n_frames=10, gain=g), ShotCategory.OTHER),
        ):
            for k in range(per_class):
                gain = 0.85 + 0.3 * k / max(per_class - 1, 1)
                feats.append(features_of(make_spec(gain), rng))
                labels.append(label)
        return feats, labels

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            NaiveBayesShotClassifier().classify(make_features())

    def test_fit_and_classify(self, rng):
        feats, labels = self._training_set(rng)
        clf = NaiveBayesShotClassifier().fit(feats, labels)
        correct = sum(
            clf.classify(f) == label for f, label in zip(feats, labels)
        )
        assert correct / len(feats) >= 0.9

    def test_generalises_to_new_shots(self, rng):
        feats, labels = self._training_set(rng)
        clf = NaiveBayesShotClassifier().fit(feats, labels)
        fresh = features_of(CourtShotSpec(n_frames=12, gain=0.9), rng)
        assert clf.classify(fresh) == ShotCategory.TENNIS

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            NaiveBayesShotClassifier().fit([make_features()], [])

    def test_empty_training(self):
        with pytest.raises(ValueError):
            NaiveBayesShotClassifier().fit([], [])

    def test_posteriors_align_with_classes(self, rng):
        feats, labels = self._training_set(rng, per_class=3)
        clf = NaiveBayesShotClassifier().fit(feats, labels)
        posts = clf.log_posteriors(feats[0])
        assert len(posts) == len(clf.classes_)


class TestCourtColour:
    CLAY = CourtStyle(surface=(165, 85, 50), surround=(60, 90, 40))

    def clay_broadcast(self):
        """A broadcast from a clay tournament (non-default court colour)."""
        generator = BroadcastGenerator(BroadcastConfig(gradual_fraction=0.0), seed=6)
        specs = [
            CourtShotSpec(n_frames=s.n_frames, script=s.script, style=self.CLAY, gain=s.gain)
            if isinstance(s, CourtShotSpec)
            else s
            for s in generator.sample_specs(10)
        ]
        return generator.assemble(specs, name="clay")

    def test_default_extractor_fails_on_clay(self):
        """The court rule keys on the default court colour: clay is missed."""
        clip, _truth = self.clay_broadcast()
        detector = SegmentDetector(boundary_detector=TwinComparisonDetector())
        detected = detector.detect(clip)
        tennis_found = sum(1 for s in detected if s.category == ShotCategory.TENNIS)
        assert tennis_found == 0
