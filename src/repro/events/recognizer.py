"""Shot-level event recognisers: rules vs HMM.

A tennis shot realises a dominant event (rally, net play, service,
baseline play).  The rule recogniser derives the label from the intervals
of the FDE's white-box detector (the grammar's event rules); the HMM
recogniser trains one model per label and classifies a shot by maximum
likelihood of its symbol sequence — the integration the companion paper
[Petković & Jonker 2001] demonstrates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.events.hmm import DiscreteHMM
from repro.events.quantize import N_SYMBOLS, TrajectoryQuantizer

if TYPE_CHECKING:
    # Annotation-only: repro.core.inference imports repro.events.quantize,
    # so a runtime import here would close an import cycle.
    from repro.core.inference import DetectedEvent, GrammarEventDetector

__all__ = [
    "EVENT_LABELS",
    "RuleBasedRecognizer",
    "HmmRecognizer",
    "CombinedRecognizer",
    "train_hmm_recognizer",
]

#: The shot-level event labels (aligned with the generator's scripts:
#: rally, net_approach -> net_play, service, baseline_play).
EVENT_LABELS = ("rally", "net_play", "service", "baseline_play")


class RuleBasedRecognizer:
    """Label a shot from its rule-detected event intervals.

    *detector* is the grammar detector the FDE runs (``GrammarEventDetector``
    over the tennis grammar).  Only :data:`EVENT_LABELS` intervals count:
    composite events such as the grammar's ``attack`` SEQ are not shot
    labels.  Any net-play interval makes the shot ``net_play`` (approaching
    the net is the marked, short-lived event the queries care about);
    otherwise the label is the event whose intervals cover the most frames.
    """

    def __init__(self, detector: GrammarEventDetector):
        self.detector = detector

    def intervals(self, trajectory: list[tuple[float, float] | None]) -> list[DetectedEvent]:
        """The detected :data:`EVENT_LABELS` intervals for a trajectory."""
        return [e for e in self.detector.detect(trajectory) if e.label in EVENT_LABELS]

    def classify(self, trajectory: list[tuple[float, float] | None]) -> str | None:
        """Dominant event label of the shot, or ``None`` when nothing fires."""
        coverage: dict[str, int] = {}
        for event in self.intervals(trajectory):
            coverage[event.label] = coverage.get(event.label, 0) + event.length
        if not coverage:
            return None
        if "net_play" in coverage:
            return "net_play"
        return max(coverage, key=lambda label: coverage[label])


class HmmRecognizer:
    """Maximum-likelihood shot classification with per-label HMMs."""

    def __init__(self, quantizer: TrajectoryQuantizer, models: dict[str, DiscreteHMM]):
        if not models:
            raise ValueError("need at least one event model")
        self.quantizer = quantizer
        self.models = models

    def log_likelihoods(self, trajectory: list[tuple[float, float]]) -> dict[str, float]:
        """Per-label log-likelihood of the trajectory's symbol sequence."""
        cleaned = [p for p in trajectory if p is not None]
        if not cleaned:
            return {label: float("-inf") for label in self.models}
        symbols = self.quantizer.symbols(cleaned)
        return {
            label: model.log_likelihood(symbols) for label, model in self.models.items()
        }

    def classify(self, trajectory: list[tuple[float, float]]) -> str | None:
        """The label whose HMM gives the trajectory the highest likelihood."""
        scores = self.log_likelihoods(trajectory)
        if all(score == float("-inf") for score in scores.values()):
            return None
        return max(scores, key=lambda label: scores[label])


class CombinedRecognizer:
    """Integrated spatio-temporal + stochastic recognition.

    The companion paper's title is the contract: *integrating
    spatio-temporal and stochastic recognition of events*.  The
    combination uses the HMM's decision when it is confident (its
    best-vs-second-best log-likelihood margin is large) and falls back
    to the deterministic rules otherwise — rules are exact on clean
    trajectories, HMMs are robust on noisy ones.

    Args:
        rules: the rule-based shot recogniser.
        hmm: the trained HMM recogniser.
        margin: log-likelihood margin above which the HMM decides alone.
    """

    def __init__(
        self,
        rules: RuleBasedRecognizer,
        hmm: HmmRecognizer,
        margin: float = 20.0,
    ):
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        self.rules = rules
        self.hmm = hmm
        self.margin = margin

    def classify(self, trajectory: list[tuple[float, float] | None]) -> str | None:
        """Combined shot-level label."""
        scores = self.hmm.log_likelihoods(trajectory)
        finite = sorted(
            (s for s in scores.values() if s != float("-inf")), reverse=True
        )
        hmm_label = (
            max(scores, key=lambda label: scores[label]) if finite else None
        )
        hmm_margin = finite[0] - finite[1] if len(finite) >= 2 else 0.0
        rule_label = self.rules.classify(trajectory)

        if rule_label is None:
            return hmm_label
        if hmm_label is None:
            return rule_label
        if rule_label == hmm_label:
            return rule_label
        return hmm_label if hmm_margin >= self.margin else rule_label


def train_hmm_recognizer(
    quantizer: TrajectoryQuantizer,
    training: dict[str, list[list[tuple[float, float]]]],
    n_states: int = 3,
    n_iterations: int = 25,
    seed: int = 0,
    noise_augment: tuple[float, ...] = (0.0, 1.0, 2.0),
) -> HmmRecognizer:
    """Train one HMM per event label from labelled trajectories.

    Args:
        quantizer: trajectory quantiser shared by training and inference.
        training: label -> list of trajectories realising that event.
        n_states: hidden states per model.
        n_iterations: Baum-Welch iterations.
        seed: model initialisation seed.
        noise_augment: observation-noise sigmas used to augment the
            training set — the stochastic recogniser learns from
            realistic (noisy) tracker output, which is what makes it
            degrade gracefully where hard-threshold rules break.
            ``(0.0,)`` trains on the raw trajectories only.

    Returns:
        A ready :class:`HmmRecognizer`.
    """
    if not training:
        raise ValueError("training set is empty")
    if not noise_augment:
        raise ValueError("noise_augment needs at least one sigma (use (0.0,))")
    rng = np.random.default_rng(seed)
    models: dict[str, DiscreteHMM] = {}
    for index, (label, trajectories) in enumerate(sorted(training.items())):
        if not trajectories:
            raise ValueError(f"no training trajectories for label {label!r}")
        sequences = []
        for trajectory in trajectories:
            for sigma in noise_augment:
                if sigma == 0.0:
                    noisy = trajectory
                else:
                    noisy = [
                        (p[0] + rng.normal(0, sigma), p[1] + rng.normal(0, sigma))
                        for p in trajectory
                    ]
                sequences.append(quantizer.symbols(noisy))
        model = DiscreteHMM(
            n_states=n_states,
            n_symbols=N_SYMBOLS,
            rng=np.random.default_rng(seed + index),
        )
        model.fit(sequences, n_iterations=n_iterations)
        models[label] = model
    return HmmRecognizer(quantizer, models)
