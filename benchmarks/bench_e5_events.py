"""E5 — event recognition: rules vs HMM.

Regenerates the event-recognition tables of the companion paper
(Petković & Jonker 2001): shot-level accuracy of the white-box
spatio-temporal rules (the tennis grammar's event rules, evaluated by
the detector the FDE runs), the stochastic (HMM) recogniser and their
combination, as trajectory noise grows; plus per-event precision/recall
of the rule intervals and the E5a HMM state-count sweep.

Expected shape: rules and HMM are both near-perfect on clean
trajectories; as observation noise grows the hard thresholds of the
rules break earlier than the HMM's probabilistic scoring.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_table
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
NOISE_LEVELS = (0.0, 2.0, 4.0)


@pytest.fixture(scope="module")
def corpus():
    """Tracked trajectories: 6 train + 4 test per label, with zones."""
    generator = BroadcastGenerator(seed=4004)
    tracker = PlayerTracker()
    zones = None
    train = {label: [] for label in SCRIPT_TO_LABEL.values()}
    test = []
    for i in range(40):
        script = list(SCRIPT_TO_LABEL)[i % 4]
        clip, _truth = generator.tennis_clip(script=script, n_frames=60)
        trajectory = tracker.track(list(clip)).positions
        if zones is None:
            model = CourtColorModel.estimate(clip[0])
            zones = CourtZones.from_court_bounds(court_bounds(clip[0], model))
        if i < 24:
            train[SCRIPT_TO_LABEL[script]].append([p for p in trajectory if p])
        else:
            test.append((SCRIPT_TO_LABEL[script], trajectory))
    return zones, train, test


def _perturb(trajectory, sigma, rng):
    """Add observation noise, as a worse tracker would produce."""
    out = []
    for position in trajectory:
        if position is None:
            out.append(None)
        else:
            out.append(
                (position[0] + rng.normal(0, sigma), position[1] + rng.normal(0, sigma))
            )
    return out


def test_e5_rules_vs_hmm_noise_sweep(benchmark, corpus):
    zones, train, test = corpus
    rng = np.random.default_rng(99)
    rule = RuleBasedRecognizer(GrammarEventDetector(tennis_grammar(), zones))
    hmm = train_hmm_recognizer(TrajectoryQuantizer(zones), train, n_states=3)
    combined = CombinedRecognizer(rule, hmm)

    def sweep():
        out = {}
        for sigma in NOISE_LEVELS:
            noisy = [(label, _perturb(t, sigma, rng)) for label, t in test]
            rule_acc = np.mean([rule.classify(t) == label for label, t in noisy])
            hmm_acc = np.mean([hmm.classify(t) == label for label, t in noisy])
            combined_acc = np.mean(
                [combined.classify(t) == label for label, t in noisy]
            )
            out[sigma] = (rule_acc, hmm_acc, combined_acc)
        return out

    accuracies = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [sigma, f"{r:.2f}", f"{h:.2f}", f"{c:.2f}"]
        for sigma, (r, h, c) in accuracies.items()
    ]
    print_table(
        "E5: shot-level event accuracy vs trajectory noise",
        ["noise sigma", "rules", "HMM", "combined"],
        rows,
    )
    clean = accuracies[0.0]
    assert clean[0] >= 0.75 and clean[1] >= 0.75
    # The stochastic recogniser holds up at least as well under heavy noise.
    noisiest = accuracies[NOISE_LEVELS[-1]]
    assert noisiest[1] >= noisiest[0] - 0.15
    # The integration never falls below both of its components.
    for sigma in NOISE_LEVELS:
        r, h, c = accuracies[sigma]
        assert c >= min(r, h) - 1e-9


def test_e5_interval_precision_recall(benchmark, corpus):
    """Per-label interval P/R of the rule detector on tracked shots."""
    zones, _train, _test = corpus
    generator = BroadcastGenerator(seed=6006)
    tracker = PlayerTracker()
    rules = RuleBasedRecognizer(GrammarEventDetector(tennis_grammar(), zones))

    def evaluate():
        per_label = {label: [0, 0, 0] for label in SCRIPT_TO_LABEL.values()}
        for i in range(12):
            script = list(SCRIPT_TO_LABEL)[i % 4]
            clip, truth = generator.tennis_clip(script=script, n_frames=60)
            trajectory = tracker.track(list(clip)).positions
            detected = rules.intervals(trajectory)
            for label in per_label:
                true_events = [e for e in truth.events if e.label == label]
                found = [e for e in detected if e.label == label]
                matched_truth = set()
                for event in found:
                    hit = None
                    for k, true_event in enumerate(true_events):
                        if k in matched_truth:
                            continue
                        overlap = min(event.stop, true_event.stop) - max(
                            event.start, true_event.start
                        )
                        if overlap > 0.3 * (true_event.stop - true_event.start):
                            hit = k
                            break
                    if hit is None:
                        per_label[label][1] += 1
                    else:
                        matched_truth.add(hit)
                        per_label[label][0] += 1
                per_label[label][2] += len(true_events) - len(matched_truth)
        return per_label

    per_label = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    rows = []
    for label, (tp, fp, fn) in per_label.items():
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        rows.append([label, tp, fp, fn, f"{precision:.2f}", f"{recall:.2f}"])
    print_table(
        "E5: rule-detector interval quality per event",
        ["event", "tp", "fp", "fn", "P", "R"],
        rows,
    )
    # Net play, the query-critical event, is reliably recovered.
    net_row = next(r for r in rows if r[0] == "net_play")
    assert float(net_row[5]) >= 0.75


def test_e5a_hmm_state_sweep(benchmark, corpus):
    zones, train, test = corpus

    def sweep():
        out = []
        for n_states in (2, 3, 5):
            recognizer = train_hmm_recognizer(
                TrajectoryQuantizer(zones), train, n_states=n_states
            )
            accuracy = np.mean([recognizer.classify(t) == label for label, t in test])
            out.append([n_states, f"{accuracy:.2f}"])
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("E5a: HMM hidden-state count", ["states", "accuracy"], rows)
    assert max(float(r[1]) for r in rows) >= 0.75


def test_e5_hmm_training_speed(benchmark, corpus):
    """Timed kernel: Baum-Welch training of one event model."""
    zones, train, _test = corpus
    quantizer = TrajectoryQuantizer(zones)
    sequences = [quantizer.symbols(t) for t in train["rally"]]

    def fit():
        from repro.events.hmm import DiscreteHMM

        model = DiscreteHMM(3, 9, rng=np.random.default_rng(0))
        model.fit(sequences, n_iterations=10)
        return model

    model = benchmark(fit)
    assert model.log_likelihood(sequences[0]) < 0
