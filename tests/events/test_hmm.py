"""Discrete HMM tests, including the Baum-Welch monotonicity property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.hmm import DiscreteHMM


def make_hmm(n_states=3, n_symbols=4, seed=0):
    return DiscreteHMM(n_states, n_symbols, rng=np.random.default_rng(seed))


sequences = st.lists(st.integers(0, 3), min_size=1, max_size=30).map(np.array)


class TestConstruction:
    def test_distributions_are_stochastic(self):
        hmm = make_hmm()
        assert hmm.start.sum() == pytest.approx(1.0)
        assert np.allclose(hmm.transition.sum(axis=1), 1.0)
        assert np.allclose(hmm.emission.sum(axis=1), 1.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            DiscreteHMM(0, 4)
        with pytest.raises(ValueError):
            DiscreteHMM(3, 0)


class TestLikelihood:
    def test_log_likelihood_nonpositive(self):
        hmm = make_hmm()
        assert hmm.log_likelihood(np.array([0, 1, 2, 3])) <= 0.0

    @given(sequences)
    @settings(max_examples=30, deadline=None)
    def test_log_likelihood_finite_and_nonpositive(self, seq):
        hmm = make_hmm()
        ll = hmm.log_likelihood(seq)
        assert np.isfinite(ll)
        assert ll <= 1e-9

    def test_rejects_out_of_range_symbols(self):
        hmm = make_hmm(n_symbols=4)
        with pytest.raises(ValueError):
            hmm.log_likelihood(np.array([0, 4]))
        with pytest.raises(ValueError):
            hmm.log_likelihood(np.array([-1]))

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            make_hmm().log_likelihood(np.array([], dtype=int))

    def test_single_symbol_likelihood(self):
        hmm = make_hmm()
        expected = np.log((hmm.start * hmm.emission[:, 2]).sum())
        assert hmm.log_likelihood(np.array([2])) == pytest.approx(expected)


class TestBaumWelch:
    def test_likelihood_never_decreases(self):
        rng = np.random.default_rng(3)
        train = [rng.integers(0, 4, size=20) for _ in range(5)]
        hmm = make_hmm(seed=1)
        history = hmm.fit(train, n_iterations=15)
        diffs = np.diff(history)
        assert (diffs >= -1e-6).all()

    def test_improves_over_initial(self):
        # Structured data: alternating blocks of symbols.
        train = [np.array([0] * 10 + [3] * 10) for _ in range(4)]
        hmm = make_hmm(seed=2)
        before = sum(hmm.log_likelihood(s) for s in train)
        hmm.fit(train, n_iterations=20)
        after = sum(hmm.log_likelihood(s) for s in train)
        assert after > before

    def test_distributions_stay_stochastic(self):
        rng = np.random.default_rng(5)
        train = [rng.integers(0, 4, size=15) for _ in range(3)]
        hmm = make_hmm(seed=3)
        hmm.fit(train, n_iterations=10)
        assert hmm.start.sum() == pytest.approx(1.0)
        assert np.allclose(hmm.transition.sum(axis=1), 1.0)
        assert np.allclose(hmm.emission.sum(axis=1), 1.0)

    def test_discriminates_two_processes(self):
        """Models trained on different dynamics separate fresh samples."""
        rng = np.random.default_rng(6)
        low = [rng.integers(0, 2, size=25) for _ in range(8)]  # symbols 0-1
        high = [2 + rng.integers(0, 2, size=25) for _ in range(8)]  # symbols 2-3
        model_low = make_hmm(seed=4)
        model_low.fit(low)
        model_high = make_hmm(seed=5)
        model_high.fit(high)
        fresh_low = rng.integers(0, 2, size=25)
        fresh_high = 2 + rng.integers(0, 2, size=25)
        assert model_low.log_likelihood(fresh_low) > model_high.log_likelihood(fresh_low)
        assert model_high.log_likelihood(fresh_high) > model_low.log_likelihood(fresh_high)

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            make_hmm().fit([])

    def test_unseen_symbols_still_scoreable(self):
        """The probability floor keeps unseen symbols finite."""
        train = [np.array([0, 0, 0, 0, 0])] * 3
        hmm = make_hmm(seed=7)
        hmm.fit(train, n_iterations=10)
        assert np.isfinite(hmm.log_likelihood(np.array([3, 3, 3])))
