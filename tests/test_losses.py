import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hellcert.losses import (
    PredictionSample,
    ScoredSample,
    auc_estimate,
    auc_pair_sample,
    jsd_gradient,
    jsd_loss,
    zero_one_stats,
)
from hellcert.rng import stream

JSD_HALF = 0.31127812445913286  # mpmath-frozen
JSD_GRAD_BINARY = 0.19812031259014452  # |0.5 log2(1/3) * 0.25|


def softmax(z):
    e = np.exp(z - np.max(z))
    return e / e.sum()


def test_zero_one_stats_trivials():
    all_right = PredictionSample([1, 2, 3], [1, 2, 3])
    s = zero_one_stats(all_right)
    assert s.empirical_mean == 0.0
    all_wrong = PredictionSample([0, 0, 0], [1, 2, 3])
    assert zero_one_stats(all_wrong).empirical_mean == 1.0


def test_zero_one_stats_pairwise_example():
    # 1 wrong of 10: mean 0.1, unbiased variance 0.1*0.9*10/9 = 0.1.
    preds = np.zeros(10, dtype=int)
    labels = np.zeros(10, dtype=int)
    labels[0] = 1
    s = zero_one_stats(PredictionSample(preds, labels))
    assert s.empirical_mean == pytest.approx(0.1, abs=1e-15)
    assert s.unbiased_variance == pytest.approx(0.1, abs=1e-15)
    assert s.ceiling == 1.0


def test_prediction_sample_rejects_empty():
    with pytest.raises(ValueError):
        PredictionSample([], [])


def test_jsd_loss_endpoints_and_frozen():
    assert jsd_loss(1.0) == 0.0
    assert jsd_loss(0.0) == 1.0
    assert jsd_loss(0.5) == pytest.approx(JSD_HALF, abs=1e-14)
    with pytest.raises(ValueError):
        jsd_loss(1.2)
    with pytest.raises(ValueError):
        jsd_loss(-0.01)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0))
def test_jsd_loss_in_unit_interval(p):
    assert 0.0 <= jsd_loss(p) <= 1.0


def test_jsd_loss_monotone_decreasing():
    grid = np.linspace(0.0, 1.0, 500)
    vals = [jsd_loss(float(p)) for p in grid]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_jsd_gradient_one_hot_limit():
    g = jsd_gradient(np.array([40.0, 0.0]), 0)
    assert np.allclose(g, 0.0, atol=1e-12)


def test_jsd_gradient_symmetric_binary():
    g = jsd_gradient(np.array([0.0, 0.0]), 1)
    assert g[1] == pytest.approx(-JSD_GRAD_BINARY, abs=1e-14)
    assert g[0] == pytest.approx(JSD_GRAD_BINARY, abs=1e-14)


def test_jsd_gradient_matches_finite_differences():
    gen = stream(55)
    h = 1e-5
    for _ in range(100):
        c = int(gen.integers(2, 7))
        z = gen.standard_normal(c) * 2.0
        y = int(gen.integers(0, c))
        analytic = jsd_gradient(z, y)
        fd = np.zeros(c)
        for j in range(c):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd[j] = (jsd_loss(softmax(zp)[y]) - jsd_loss(softmax(zm)[y])) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
        assert rel <= 1e-5


def test_scored_sample_needs_both_classes():
    with pytest.raises(ValueError, match="degenerate"):
        ScoredSample([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        ScoredSample([0.1], [2])  # bad label


def test_auc_estimate_trivials_and_ties():
    assert auc_estimate(ScoredSample([1.0, 0.0], [1, -1])) == 1.0
    assert auc_estimate(ScoredSample([0.0, 1.0], [1, -1])) == 0.0
    # Ties count as successes.
    assert auc_estimate(ScoredSample([0.5, 0.5], [1, -1])) == 1.0


def test_auc_estimate_brute_force_example():
    s = ScoredSample([0.9, 0.4, 0.5, 0.1], [1, 1, -1, -1])
    assert auc_estimate(s) == pytest.approx(0.75, abs=1e-15)


def test_auc_invariant_under_monotone_transforms():
    gen = stream(77)
    scores = gen.standard_normal(40)
    labels = np.where(gen.random(40) < 0.5, 1, -1)
    labels[0], labels[1] = 1, -1
    s = ScoredSample(scores, labels)
    base = auc_estimate(s)
    for f in (lambda x: 3 * x + 7, np.exp, lambda x: x**3):
        assert auc_estimate(ScoredSample(f(scores), labels)) == base


def test_auc_pair_sample_deterministic_and_enumerated():
    s = ScoredSample([0.9, 0.4, 0.5, 0.1], [1, 1, -1, -1])
    first = auc_pair_sample(s, seed=5)
    again = auc_pair_sample(s, seed=5)
    assert np.array_equal(first.losses, again.losses)
    # Two possible disjoint pairings: {(0.9,0.5),(0.4,0.1)} -> mean 1 and
    # {(0.9,0.1),(0.4,0.5)} -> mean 1/2.  The seeded run must realize one.
    assert first.empirical_mean in (0.5, 1.0)
    # Deterministic pairing reproduced from the same stream.
    gen = stream(5)
    pos = np.array([0.9, 0.4])[gen.permutation(2)]
    neg = np.array([0.5, 0.1])[gen.permutation(2)]
    assert np.array_equal(first.losses, (pos >= neg).astype(float))


def test_auc_pair_sample_single_pair_rejected():
    s = ScoredSample([0.9, 0.1], [1, -1])
    with pytest.raises(ValueError, match="at least 2"):
        auc_pair_sample(s, seed=0)


def test_auc_pair_mean_over_seeds_matches_estimate():
    gen = stream(88)
    n = 12
    scores = gen.standard_normal(2 * n)
    labels = np.array([1] * n + [-1] * n)
    s = ScoredSample(scores, labels)
    target = auc_estimate(s)
    means = [auc_pair_sample(s, seed=k).empirical_mean for k in range(1000)]
    means = np.asarray(means)
    se = means.std(ddof=1) / math.sqrt(means.size)
    assert abs(means.mean() - target) <= 3 * se + 1e-12


def test_auc_estimate_equals_all_pairs_mean_with_ties():
    gen = stream(78)
    for case in range(300):
        n = int(gen.integers(2, 60))
        # Few distinct levels so ties across and within classes are common.
        scores = np.round(gen.standard_normal(n), int(gen.integers(0, 2)))
        labels = np.where(gen.random(n) < 0.5, 1, -1)
        labels[0], labels[1] = 1, -1
        sample = ScoredSample(scores, labels)
        pos, neg = sample.positives, sample.negatives
        assert auc_estimate(sample) == float(np.mean(pos[:, None] >= neg[None, :])), case
