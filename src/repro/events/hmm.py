"""Discrete hidden Markov models.

The stochastic event recogniser of Petković & Jonker (2001) models each
event class with an HMM over quantised trajectory symbols and classifies
by maximum likelihood.  This discrete-HMM implementation has what that
classifier needs: scaled forward/backward for the likelihood, and
Baum–Welch training over multiple observation sequences.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DiscreteHMM"]


class DiscreteHMM:
    """A discrete-observation HMM.

    Args:
        n_states: number of hidden states.
        n_symbols: observation alphabet size.
        rng: randomness source for initialisation (training is
            deterministic given the rng state).

    Attributes:
        start: initial state distribution, shape ``(n_states,)``.
        transition: row-stochastic transition matrix ``(n_states, n_states)``.
        emission: row-stochastic emission matrix ``(n_states, n_symbols)``.
    """

    #: Probability floor applied after each Baum-Welch update so no
    #: transition/emission collapses to exactly zero (keeps unseen symbols
    #: scoreable with finite log-likelihood).
    _FLOOR = 1e-6

    def __init__(
        self,
        n_states: int,
        n_symbols: int,
        rng: np.random.Generator | None = None,
    ):
        if n_states < 1 or n_symbols < 1:
            raise ValueError("n_states and n_symbols must be >= 1")
        self.n_states = n_states
        self.n_symbols = n_symbols
        rng = rng or np.random.default_rng(0)
        self.start = self._normalise(rng.random(n_states) + 0.5)
        self.transition = self._normalise(rng.random((n_states, n_states)) + 0.5)
        self.emission = self._normalise(rng.random((n_states, n_symbols)) + 0.5)

    @staticmethod
    def _normalise(arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 1:
            return arr / arr.sum()
        return arr / arr.sum(axis=1, keepdims=True)

    def _check_sequence(self, sequence: np.ndarray) -> np.ndarray:
        seq = np.asarray(sequence, dtype=np.int64)
        if seq.ndim != 1 or len(seq) == 0:
            raise ValueError("observation sequence must be a non-empty 1-D array")
        if seq.min() < 0 or seq.max() >= self.n_symbols:
            raise ValueError(
                f"symbols must be in 0..{self.n_symbols - 1}, got range "
                f"[{seq.min()}, {seq.max()}]"
            )
        return seq

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #

    def _forward(self, seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scaled forward pass: returns (alpha, scales)."""
        t_len = len(seq)
        alpha = np.zeros((t_len, self.n_states))
        scales = np.zeros(t_len)
        alpha[0] = self.start * self.emission[:, seq[0]]
        scales[0] = alpha[0].sum() or np.finfo(float).tiny
        alpha[0] /= scales[0]
        for t in range(1, t_len):
            alpha[t] = (alpha[t - 1] @ self.transition) * self.emission[:, seq[t]]
            scales[t] = alpha[t].sum() or np.finfo(float).tiny
            alpha[t] /= scales[t]
        return alpha, scales

    def _backward(self, seq: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """Scaled backward pass using the forward scales."""
        t_len = len(seq)
        beta = np.zeros((t_len, self.n_states))
        beta[-1] = 1.0
        for t in range(t_len - 2, -1, -1):
            beta[t] = self.transition @ (self.emission[:, seq[t + 1]] * beta[t + 1])
            beta[t] /= scales[t + 1]
        return beta

    def log_likelihood(self, sequence: np.ndarray) -> float:
        """Log P(sequence | model)."""
        seq = self._check_sequence(sequence)
        _alpha, scales = self._forward(seq)
        return float(np.log(scales).sum())

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def fit(
        self,
        sequences: list[np.ndarray],
        n_iterations: int = 30,
        tolerance: float = 1e-4,
    ) -> list[float]:
        """Baum–Welch over multiple sequences.

        Args:
            sequences: training observation sequences.
            n_iterations: maximum EM iterations.
            tolerance: stop when total log-likelihood improves less than
                this between iterations.

        Returns:
            Total log-likelihood after each iteration (non-decreasing up
            to numerical error — a property the tests assert).
        """
        if not sequences:
            raise ValueError("need at least one training sequence")
        checked = [self._check_sequence(s) for s in sequences]
        history: list[float] = []
        for _ in range(n_iterations):
            total_ll = 0.0
            start_acc = np.zeros(self.n_states)
            trans_acc = np.zeros((self.n_states, self.n_states))
            emit_acc = np.zeros((self.n_states, self.n_symbols))
            state_acc = np.zeros(self.n_states)

            for seq in checked:
                alpha, scales = self._forward(seq)
                beta = self._backward(seq, scales)
                total_ll += float(np.log(scales).sum())

                gamma = alpha * beta
                gamma /= gamma.sum(axis=1, keepdims=True)
                start_acc += gamma[0]
                for t in range(len(seq) - 1):
                    xi = (
                        alpha[t][:, None]
                        * self.transition
                        * self.emission[:, seq[t + 1]][None, :]
                        * beta[t + 1][None, :]
                    )
                    total = xi.sum()
                    if total > 0:
                        trans_acc += xi / total
                for t, symbol in enumerate(seq):
                    emit_acc[:, symbol] += gamma[t]
                state_acc += gamma.sum(axis=0)

            self.start = self._normalise(start_acc + self._FLOOR)
            self.transition = self._normalise(trans_acc + self._FLOOR)
            self.emission = self._normalise(emit_acc + self._FLOOR)

            history.append(total_ll)
            if len(history) >= 2 and abs(history[-1] - history[-2]) < tolerance:
                break
        return history
