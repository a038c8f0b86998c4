import itertools

import numpy as np
import pytest

from dspn.dynamic import sequence_loglik
from dspn.hmm import (DiscreteHmm, baum_welch, hmm_dataset,
                      hmm_dataset_loglik, hmm_loglik, hmm_sample,
                      hmm_to_model, random_hmm)


def test_deterministic_chain_is_predictable():
    h = DiscreteHmm(initial=[1.0, 0.0],
                    transition=[[1.0, 0.0], [0.0, 1.0]],
                    emissions=[[[0.0, 1.0]], [[1.0, 0.0]]],
                    arities=(2,))
    seq = hmm_sample(h, 8, np.random.default_rng(0))
    np.testing.assert_array_equal(seq, np.ones((8, 1)))


def test_stationary_frequencies_match_eigenvector():
    rng = np.random.default_rng(1)
    h = random_hmm(3, (2,), rng)
    pi = h.stationary_distribution()
    np.testing.assert_allclose(h.transition.T @ pi, pi, atol=1e-12)
    # long-run empirical state frequencies: track states explicitly
    counts = np.zeros(3)
    state = int(rng.choice(3, p=h.initial))
    for _ in range(200_000):
        counts[state] += 1
        state = int(rng.choice(3, p=h.transition[state]))
    np.testing.assert_allclose(counts / counts.sum(), pi, atol=0.01)


def test_default_generator_shape():
    rng = np.random.default_rng(2)
    h = random_hmm(2, (2,), rng)
    data = hmm_dataset(h, 100, 100, rng)
    assert len(data) == 100
    assert all(s.shape == (100, 1) for s in data)


def test_loglik_single_slice():
    rng = np.random.default_rng(3)
    h = random_hmm(2, (2, 3), rng)
    obs = np.array([[1, 2]])
    want = np.log(sum(h.initial[s] * h.emissions[s, 0, 1] * h.emissions[s, 1, 2]
                      for s in range(2)))
    assert hmm_loglik(h, obs) == pytest.approx(want, abs=1e-12)


def path_enumeration_loglik(h, seq):
    """Log of the sum over every hidden-state path; a missing (-1) value
    emits with probability 1."""
    total = 0.0
    for path in itertools.product(range(h.n_states), repeat=len(seq)):
        p = h.initial[path[0]]
        for t in range(1, len(seq)):
            p *= h.transition[path[t - 1], path[t]]
        for t, obs in enumerate(seq):
            for v, x in enumerate(obs):
                if x >= 0:
                    p *= h.emissions[path[t], v, x]
        total += p
    return np.log(total)


def test_loglik_matches_path_enumeration():
    # every length in one batch
    rng = np.random.default_rng(4)
    h = random_hmm(2, (2,), rng, stationary_initial=False)
    seqs = [hmm_sample(h, T, rng) for T in (1, 2, 4, 7, 10)]
    want = [path_enumeration_loglik(h, s) for s in seqs]
    np.testing.assert_allclose(hmm_dataset_loglik(h, seqs), want, rtol=0, atol=1e-10)
    assert hmm_dataset_loglik(h, []).shape == (0,)


def test_loglik_with_missing_values():
    rng = np.random.default_rng(5)
    h = random_hmm(2, (2, 2), rng)
    seq = np.array([[1, -1], [-1, -1], [0, 1]])
    # marginalizing a variable = summing its emission, which is 1
    h_marg = hmm_loglik(h, seq)
    total = 0.0
    for a in range(2):
        for b_ in range(2):
            for c in range(2):
                filled = seq.copy()
                filled[0, 1], filled[1, 0], filled[1, 1] = a, b_, c
                total += np.exp(hmm_loglik(h, filled))
    assert h_marg == pytest.approx(np.log(total), abs=1e-10)


def test_conversion_matches_on_random_sequences():
    rng = np.random.default_rng(6)
    for states in (1, 2, 3):
        h = random_hmm(states, (2,), rng)
        m = hmm_to_model(h)
        for _ in range(30):
            seq = hmm_sample(h, int(rng.integers(1, 30)), rng)
            assert sequence_loglik(m, seq) == pytest.approx(
                hmm_loglik(h, seq), abs=1e-9)


def test_conversion_rejects_nonstationary_initial():
    rng = np.random.default_rng(7)
    h = random_hmm(2, (2,), rng, stationary_initial=False)
    assert np.abs(h.initial - h.stationary_distribution()).max() > 1e-3
    with pytest.raises(ValueError):
        hmm_to_model(h)


def test_baum_welch_recovers_point_mass():
    h = DiscreteHmm(initial=[1.0], transition=[[1.0]],
                    emissions=[[[0.0, 1.0]]], arities=(2,))
    data = hmm_dataset(h, 20, 10, np.random.default_rng(8))
    fitted, _ = baum_welch(data, 1, (2,), iterations=5, alpha=1e-6)
    np.testing.assert_allclose(fitted.emissions[0, 0], [0.0, 1.0], atol=1e-4)


def test_baum_welch_monotone():
    rng = np.random.default_rng(9)
    h = random_hmm(2, (2,), rng)
    data = hmm_dataset(h, 30, 20, rng)
    _, trace = baum_welch(data, 2, (2,), iterations=100, alpha=0.0, tol=0.0)
    diffs = np.diff(trace)
    assert (diffs >= -1e-8).all()


def test_baum_welch_mixed_lengths_with_missing_values():
    rng = np.random.default_rng(12)
    arities = (2, 3)
    data = [hmm_sample(random_hmm(2, arities, rng), T, rng)
            for T in (6, 1, 3, 6, 2, 5, 1, 4)]
    for s in data:
        s[rng.random(s.shape) < 0.3] = -1
    _, trace = baum_welch(data, 2, arities, iterations=30, alpha=0.0, tol=0.0,
                          seed=3)
    # the first trace value scores the data under baum_welch's starting model
    start = random_hmm(2, arities, np.random.default_rng(3),
                       stationary_initial=False)
    want = sum(path_enumeration_loglik(start, s) for s in data)
    assert trace[0] == pytest.approx(want, abs=1e-9)
    assert len(trace) == 30
    assert (np.diff(trace) >= -1e-8).all()


def test_stationary_distribution_rejects_repeated_unit_eigenvalue():
    # the identity and a chain with two closed classes have many
    # stationary distributions, so no single one may be returned
    two_classes = [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0],
                   [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]]
    for trans in (np.eye(2), np.array(two_classes)):
        s = len(trans)
        h = DiscreteHmm(np.full(s, 1.0 / s), trans, np.full((s, 1, 2), 0.5), (2,))
        with pytest.raises(ValueError, match="not unique"):
            h.stationary_distribution()
        with pytest.raises(ValueError, match="not unique"):
            hmm_to_model(h)


def test_baum_welch_approaches_generator():
    rng = np.random.default_rng(10)
    h = random_hmm(2, (2,), rng, concentration=0.7)
    train = hmm_dataset(h, 500, 40, rng)
    test = hmm_dataset(h, 200, 40, rng)
    fitted, _ = baum_welch(train, 2, (2,), iterations=80, alpha=0.05)
    true_nll = -hmm_dataset_loglik(h, test).mean()
    fit_nll = -hmm_dataset_loglik(fitted, test).mean()
    assert fit_nll >= true_nll - 0.05  # generator is optimal in expectation
    assert (fit_nll - true_nll) / true_nll < 0.03


def test_serialization_round_trip():
    rng = np.random.default_rng(11)
    h = random_hmm(3, (2, 4), rng)
    h2 = DiscreteHmm.from_dict(h.to_dict())
    np.testing.assert_array_equal(h.transition, h2.transition)
    np.testing.assert_array_equal(h.emissions, h2.emissions)
    seq = hmm_sample(h, 12, rng)
    assert hmm_loglik(h2, seq) == hmm_loglik(h, seq)
