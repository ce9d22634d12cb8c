"""Combined (rules + HMM) recogniser tests."""

import numpy as np
import pytest

from repro.core.defaults import tennis_grammar
from repro.core.inference import GrammarEventDetector
from repro.events.quantize import CourtZones, TrajectoryQuantizer
from repro.events.recognizer import (
    CombinedRecognizer,
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
def setup():
    generator = BroadcastGenerator(seed=77)
    tracker = PlayerTracker()
    zones = None
    train = {label: [] for label in SCRIPT_TO_LABEL.values()}
    test = []
    for i in range(28):
        script = list(SCRIPT_TO_LABEL)[i % 4]
        clip, _truth = generator.tennis_clip(script=script, n_frames=50)
        trajectory = tracker.track(list(clip)).positions
        if zones is None:
            model = CourtColorModel.estimate(clip[0])
            zones = CourtZones.from_court_bounds(court_bounds(clip[0], model))
        if i < 20:
            train[SCRIPT_TO_LABEL[script]].append([p for p in trajectory if p])
        else:
            test.append((SCRIPT_TO_LABEL[script], trajectory))
    rules = RuleBasedRecognizer(GrammarEventDetector(tennis_grammar(), zones))
    hmm = train_hmm_recognizer(TrajectoryQuantizer(zones), train, n_states=3)
    return rules, hmm, test


def perturb(trajectory, sigma, rng):
    return [
        None if p is None else (p[0] + rng.normal(0, sigma), p[1] + rng.normal(0, sigma))
        for p in trajectory
    ]


class TestCombinedRecognizer:
    def test_matches_components_on_clean_data(self, setup):
        rules, hmm, test = setup
        combined = CombinedRecognizer(rules, hmm)
        accuracy = np.mean([combined.classify(t) == label for label, t in test])
        assert accuracy >= 0.75

    def test_at_least_as_robust_as_rules_under_noise(self, setup):
        rules, hmm, test = setup
        combined = CombinedRecognizer(rules, hmm)
        rng = np.random.default_rng(5)
        noisy = [(label, perturb(t, 4.0, rng)) for label, t in test]
        rule_acc = np.mean([rules.classify(t) == label for label, t in noisy])
        combined_acc = np.mean([combined.classify(t) == label for label, t in noisy])
        assert combined_acc >= rule_acc - 1e-9

    def test_agreement_passthrough(self, setup):
        rules, hmm, test = setup
        combined = CombinedRecognizer(rules, hmm)
        for label, trajectory in test:
            rule_label = rules.classify(trajectory)
            hmm_label = hmm.classify(trajectory)
            if rule_label == hmm_label and rule_label is not None:
                assert combined.classify(trajectory) == rule_label

    def test_empty_trajectory(self, setup):
        rules, hmm, _test = setup
        combined = CombinedRecognizer(rules, hmm)
        assert combined.classify([]) is None

    def test_margin_validation(self, setup):
        rules, hmm, _test = setup
        with pytest.raises(ValueError):
            CombinedRecognizer(rules, hmm, margin=-1.0)

    def test_rules_none_falls_back_to_hmm(self, setup):
        rules, hmm, test = setup
        combined = CombinedRecognizer(rules, hmm)
        # A trajectory too short for any rule still gets an HMM label.
        _label, trajectory = test[0]
        short = [p for p in trajectory if p][:4]
        assert rules.classify(short) is None
        assert combined.classify(short) == hmm.classify(short)
