"""Shot-level event recogniser tests (rules vs HMM) on real pipeline output."""

import numpy as np
import pytest

from repro.core.defaults import tennis_grammar
from repro.core.inference import GrammarEventDetector
from repro.events.quantize import CourtZones, TrajectoryQuantizer
from repro.events.recognizer import (
    EVENT_LABELS,
    HmmRecognizer,
    RuleBasedRecognizer,
    train_hmm_recognizer,
)
from repro.tracking.court_model import CourtColorModel
from repro.tracking.segmentation import court_bounds
from repro.tracking.tracker import PlayerTracker
from repro.video.generator import BroadcastGenerator

SCRIPT_TO_LABEL = {
    "rally": "rally",
    "net_approach": "net_play",
    "service": "service",
    "baseline_play": "baseline_play",
}


@pytest.fixture(scope="module")
def corpus():
    """Tracked trajectories per label: 4 train + 2 test per script."""
    generator = BroadcastGenerator(seed=23)
    tracker = PlayerTracker()
    zones = None
    train = {label: [] for label in SCRIPT_TO_LABEL.values()}
    test = []
    for i in range(24):
        script = list(SCRIPT_TO_LABEL)[i % 4]
        clip, _truth = generator.tennis_clip(script=script, n_frames=50)
        trajectory = tracker.track(list(clip)).positions
        if zones is None:
            model = CourtColorModel.estimate(clip[0])
            zones = CourtZones.from_court_bounds(court_bounds(clip[0], model))
        if i < 16:
            train[SCRIPT_TO_LABEL[script]].append([p for p in trajectory if p])
        else:
            test.append((SCRIPT_TO_LABEL[script], trajectory))
    return zones, train, test


def rule_recognizer(zones):
    return RuleBasedRecognizer(GrammarEventDetector(tennis_grammar(), zones))


def baseline_then_net():
    """Slow centre-court baseline play, then a stay at the net.

    The grammar's ``attack`` (SEQ baseline_play THEN net_play) spans
    both, so it covers more frames than either shot-level event.
    """
    baseline = [(85.0, 60.0 + 0.3 * np.sin(t / 9)) for t in range(20)]
    return baseline + [(52.0, 64.0)] * 12


class TestRuleBasedRecognizer:
    def test_classifies_test_set(self, corpus):
        zones, _train, test = corpus
        recognizer = rule_recognizer(zones)
        correct = sum(recognizer.classify(t) == label for label, t in test)
        assert correct / len(test) >= 0.75

    def test_none_for_empty(self, corpus):
        zones, _, _ = corpus
        recognizer = rule_recognizer(zones)
        assert recognizer.classify([]) is None

    def test_net_play_precedence(self, corpus):
        zones, _, test = corpus
        recognizer = rule_recognizer(zones)
        for label, trajectory in test:
            if label == "net_play":
                assert recognizer.classify(trajectory) == "net_play"

    def test_attack_span_does_not_label_the_shot(self):
        zones = CourtZones(net_row=50.0, baseline_row=90.0, left_col=20.0, right_col=108.0)
        recognizer = rule_recognizer(zones)
        trajectory = baseline_then_net()
        raw = recognizer.detector.detect(trajectory)
        attack = [e for e in raw if e.label == "attack"]
        assert attack
        assert attack[0].length > max(e.length for e in raw if e.label != "attack")
        assert recognizer.classify(trajectory) == "net_play"

    def test_intervals_never_return_attack(self, corpus):
        zones, _train, test = corpus
        recognizer = rule_recognizer(zones)
        for trajectory in [baseline_then_net()] + [t for _label, t in test]:
            assert all(e.label in EVENT_LABELS for e in recognizer.intervals(trajectory))


class TestHmmRecognizer:
    def test_classifies_test_set(self, corpus):
        zones, train, test = corpus
        recognizer = train_hmm_recognizer(TrajectoryQuantizer(zones), train, n_states=3)
        correct = sum(recognizer.classify(t) == label for label, t in test)
        assert correct / len(test) >= 0.75

    def test_likelihoods_per_label(self, corpus):
        zones, train, test = corpus
        recognizer = train_hmm_recognizer(TrajectoryQuantizer(zones), train)
        scores = recognizer.log_likelihoods(test[0][1])
        assert set(scores) == set(EVENT_LABELS)
        assert all(np.isfinite(v) or v == float("-inf") for v in scores.values())

    def test_empty_trajectory_none(self, corpus):
        zones, train, _ = corpus
        recognizer = train_hmm_recognizer(TrajectoryQuantizer(zones), train)
        assert recognizer.classify([]) is None

    def test_training_validation(self, corpus):
        zones, _, _ = corpus
        quantizer = TrajectoryQuantizer(zones)
        with pytest.raises(ValueError):
            train_hmm_recognizer(quantizer, {})
        with pytest.raises(ValueError):
            train_hmm_recognizer(quantizer, {"rally": []})

    def test_recognizer_needs_models(self, corpus):
        zones, _, _ = corpus
        with pytest.raises(ValueError):
            HmmRecognizer(TrajectoryQuantizer(zones), {})
