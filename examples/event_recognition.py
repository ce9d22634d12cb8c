"""Event recognition: white-box rules vs stochastic (HMM) recognition.

Reproduces the comparison of Petković & Jonker (2001): train one HMM
per event class on tracked trajectories, then classify held-out shots
with (a) the spatio-temporal rules — the tennis grammar's event rules,
evaluated by the detector the FDE runs — and (b) the HMMs, at
increasing trajectory noise.

Usage::

    python examples/event_recognition.py
"""

import numpy as np

from repro.core.defaults import tennis_grammar
from repro.core.inference import GrammarEventDetector
from repro.events.quantize import CourtZones, TrajectoryQuantizer
from repro.events.recognizer import RuleBasedRecognizer, train_hmm_recognizer
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


def build_corpus(seed: int, n_shots: int):
    """Tracked trajectories with labels, plus the court zoning."""
    generator = BroadcastGenerator(seed=seed)
    tracker = PlayerTracker()
    zones = None
    corpus = []
    for i in range(n_shots):
        script = list(SCRIPT_TO_LABEL)[i % 4]
        clip, _truth = generator.tennis_clip(script=script, n_frames=60)
        if zones is None:
            model = CourtColorModel.estimate(clip[0])
            zones = CourtZones.from_court_bounds(court_bounds(clip[0], model))
        trajectory = tracker.track(list(clip)).positions
        corpus.append((SCRIPT_TO_LABEL[script], trajectory))
    return zones, corpus


def perturb(trajectory, sigma, rng):
    return [
        None if p is None else (p[0] + rng.normal(0, sigma), p[1] + rng.normal(0, sigma))
        for p in trajectory
    ]


def main() -> None:
    print("building training corpus (24 tracked shots)...")
    zones, train_corpus = build_corpus(seed=100, n_shots=24)
    print("building test corpus (12 tracked shots)...")
    _, test_corpus = build_corpus(seed=200, n_shots=12)

    training = {}
    for label, trajectory in train_corpus:
        training.setdefault(label, []).append([p for p in trajectory if p])

    print("training HMMs (Baum-Welch, 3 states each)...")
    hmm = train_hmm_recognizer(TrajectoryQuantizer(zones), training, n_states=3)
    rules = RuleBasedRecognizer(GrammarEventDetector(tennis_grammar(), zones))

    rng = np.random.default_rng(0)
    print(f"\n{'noise':>6} {'rules':>7} {'HMM':>6}")
    for sigma in (0.0, 1.0, 2.0, 4.0):
        noisy = [(label, perturb(t, sigma, rng)) for label, t in test_corpus]
        acc_rules = np.mean([rules.classify(t) == label for label, t in noisy])
        acc_hmm = np.mean([hmm.classify(t) == label for label, t in noisy])
        print(f"{sigma:6.1f} {acc_rules:7.2f} {acc_hmm:6.2f}")

    # Show the per-class likelihoods for one shot.
    label, trajectory = test_corpus[1]
    print(f"\nHMM log-likelihoods for one '{label}' shot:")
    for name, score in sorted(hmm.log_likelihoods(trajectory).items()):
        print(f"  {name:14s} {score:10.2f}")


if __name__ == "__main__":
    main()
