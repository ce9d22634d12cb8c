"""Event recognition from player trajectories.

"Player's positions and their transitions over time are related to
particular events (net-playing, rally, etc.) using rules.  These rules,
which use spatio-temporal relations, are implemented as white- and
blackbox detectors within the FDE."

The companion work (Petković & Jonker, *Content-based video retrieval by
integrating spatio-temporal and stochastic recognition of events*, 2001)
adds a stochastic recogniser; we implement both:

- :mod:`repro.events.quantize` — trajectories to court zones and
  observation symbols.
- :mod:`repro.events.hmm` — discrete hidden Markov models
  (forward/backward, Baum–Welch).
- :mod:`repro.events.recognizer` — shot-level recognisers: rule-based,
  HMM maximum-likelihood, and a combined voter.

The white-box rules themselves (net play, rally, service, baseline play)
are the tennis grammar's event rules (:mod:`repro.core.defaults`),
evaluated by :class:`repro.core.inference.GrammarEventDetector` — the
detector the FDE runs and the rule recogniser labels shots with.
"""

from repro.events.quantize import CourtZones, TrajectoryQuantizer, N_SYMBOLS
from repro.events.hmm import DiscreteHMM
from repro.events.recognizer import (
    EVENT_LABELS,
    RuleBasedRecognizer,
    HmmRecognizer,
    CombinedRecognizer,
    train_hmm_recognizer,
)

__all__ = [
    "CourtZones",
    "TrajectoryQuantizer",
    "N_SYMBOLS",
    "DiscreteHMM",
    "EVENT_LABELS",
    "RuleBasedRecognizer",
    "HmmRecognizer",
    "CombinedRecognizer",
    "train_hmm_recognizer",
]
