import math

import numpy as np
import pytest

from hellcert.network import (
    SmallNetwork,
    TrainingDivergenceError,
    _loss_and_logit_grad,
    batch_loss,
    batch_loss_and_param_grads,
    golden_section_max,
    jsd_head_constants,
    lipschitz_profile,
    operator_norm,
    per_sample_losses_and_input_grads,
    spectral_normalize,
    train_network,
)
from hellcert.rng import stream

L0_HEAD = 0.314568  # reported head constant, reproduced to 1e-4


@pytest.fixture(scope="module")
def trained_default():
    """One 2000-step default run shared by the training assertions."""
    gen = stream(9)
    n = 2000
    y = gen.integers(0, 2, size=n)
    x = (2.0 * y - 1.0)[:, None] * np.array([2.0, 0.0]) + gen.standard_normal((n, 2))
    net = SmallNetwork.initialize(hidden=(4, 2), seed=9)
    result = train_network(net, x, y, steps=2000, learning_rate=0.5)
    return x, y, result


def test_operator_norm_matches_svd():
    for s in range(20):
        w = stream(100, s).standard_normal((8, 8))
        sigma, _ = operator_norm(w, max_iters=500, tol=1e-14)
        top = float(np.linalg.svd(w, compute_uv=False)[0])
        assert abs(sigma - top) <= 1e-8


def test_operator_norm_zero_matrix():
    sigma, _ = operator_norm(np.zeros((3, 3)))
    assert sigma == 0.0


def test_spectral_normalize_unit_ball():
    net = SmallNetwork(
        weights=[stream(7, j).standard_normal((6, 6)) * 3.0 for j in range(3)],
        _power_vectors=None,
    )
    spectral_normalize(net, max_iters=500, tol=1e-12)
    for w in net.weights:
        assert float(np.linalg.svd(w, compute_uv=False)[0]) <= 1.0 + 1e-6


def test_spectral_normalize_leaves_small_matrices_alone():
    w = np.eye(4) * 0.5
    net = SmallNetwork(weights=[w.copy()], _power_vectors=None)
    spectral_normalize(net)
    assert np.array_equal(net.weights[0], w)


def test_param_gradients_match_finite_differences():
    net = SmallNetwork.initialize(hidden=(4, 2), seed=3)
    gen = stream(11)
    x = gen.standard_normal((40, 2))
    y = gen.integers(0, 2, size=40)
    _, grads = batch_loss_and_param_grads(net, x, y)
    h = 1e-6
    for _ in range(10):
        j = int(gen.integers(0, net.n_layers))
        r = int(gen.integers(0, net.weights[j].shape[0]))
        c = int(gen.integers(0, net.weights[j].shape[1]))
        plus, minus = net.copy(), net.copy()
        plus.weights[j][r, c] += h
        minus.weights[j][r, c] -= h
        fd = (batch_loss(plus, x, y) - batch_loss(minus, x, y)) / (2 * h)
        rel = abs(fd - grads[j][r, c]) / max(abs(grads[j][r, c]), 1e-10)
        assert rel <= 1e-4


def test_input_gradients_match_finite_differences():
    net = SmallNetwork.initialize(hidden=(4, 2), seed=3)
    gen = stream(12)
    x = gen.standard_normal((10, 2))
    y = gen.integers(0, 2, size=10)
    _, gx = per_sample_losses_and_input_grads(net, x, y)
    h = 1e-6
    for i in (0, 4, 9):
        for d in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i, d] += h
            xm[i, d] -= h
            lp, _ = per_sample_losses_and_input_grads(net, xp, y)
            lm, _ = per_sample_losses_and_input_grads(net, xm, y)
            fd = (lp[i] - lm[i]) / (2 * h)
            assert abs(fd - gx[i, d]) <= 1e-6 + 1e-4 * abs(gx[i, d])


def test_train_zero_steps_unchanged():
    net = SmallNetwork.initialize(hidden=(4, 2), seed=5)
    gen = stream(13)
    x = gen.standard_normal((50, 2))
    y = gen.integers(0, 2, size=50)
    result = train_network(net, x, y, steps=0)
    for w0, w1 in zip(net.weights, result.network.weights):
        assert np.array_equal(w0, w1)


def test_train_checkpoints_non_increasing(trained_default):
    _, _, result = trained_default
    diffs = np.diff(result.checkpoint_losses)
    assert np.all(diffs <= 1e-9)


def test_train_reaches_low_error(trained_default):
    x, y, result = trained_default
    pred = result.network.forward(x).argmax(axis=1)
    assert (pred != y).mean() < 0.1


def test_train_keeps_norms_normalized(trained_default):
    _, _, result = trained_default
    for w in result.network.weights:
        assert float(np.linalg.svd(w, compute_uv=False)[0]) <= 1.0 + 1e-6


def test_train_detects_divergence():
    net = SmallNetwork.initialize(hidden=(4,), seed=1)
    x = np.array([[np.nan, 0.0], [1.0, 1.0]])
    y = np.array([0, 1])
    with pytest.raises(TrainingDivergenceError):
        train_network(net, x, y, steps=5)


def test_lipschitz_profile_single_unit_layer():
    net = SmallNetwork(weights=[np.eye(2)], _power_vectors=None)
    prof = lipschitz_profile(net)
    assert prof.alpha == (1.0,)
    assert prof.beta == (1.0,)
    l0, l1 = jsd_head_constants()
    assert prof.l_star == pytest.approx(l0 * 1.0 + l1 * 1.0, abs=1e-12)


def test_lipschitz_profile_alpha_bounded_by_one(trained_default):
    _, _, result = trained_default
    prof = lipschitz_profile(result.network)
    assert all(a <= 1.0 + 1e-6 for a in prof.alpha)
    assert prof.beta[-1] <= result.network.n_layers + 1e-6


def test_lipschitz_profile_matches_svd_products():
    net = SmallNetwork(
        weights=[stream(42, j).standard_normal((5, 5)) * 0.4 for j in range(2)],
        _power_vectors=None,
    )
    prof = lipschitz_profile(net)
    norms = [float(np.linalg.svd(w, compute_uv=False)[0]) for w in net.weights]
    assert prof.alpha[-1] == pytest.approx(norms[0] * norms[1], abs=1e-8)


def test_golden_section_max():
    # x is localizable only to ~sqrt(eps) at a flat quadratic maximum; the
    # value itself is far tighter.
    x, v = golden_section_max(lambda t: -(t - 0.37) ** 2 + 2.0, 0.0, 1.0, tol=1e-10)
    assert x == pytest.approx(0.37, abs=1e-6)
    assert v == pytest.approx(2.0, abs=1e-12)


def test_jsd_head_constants():
    l0, l1 = jsd_head_constants()
    assert l0 == pytest.approx(L0_HEAD, abs=1e-4)
    assert l1 == 0.5


def test_jsd_head_maximizer_interior():
    # The objective vanishes at both endpoints, so the maximum is interior.
    def objective(p):
        return math.log2((1.0 + p) / p) * p * (1.0 - p) / math.sqrt(2.0)

    x, v = golden_section_max(objective, 1e-12, 1.0 - 1e-12, tol=1e-10)
    assert 0.05 < x < 0.95
    assert v > objective(1e-9) and v > objective(1.0 - 1e-9)


def test_input_gradients_match_exp_backprop_reference():
    # Reference backprop with ELU' = exp(z) on the pre-activations; the
    # library takes min(a, 0) + 1 from the post-activation, equal to rounding.
    net = SmallNetwork.initialize(hidden=(8, 8), seed=5)
    gen = stream(13)
    x = 3.0 * gen.standard_normal((200, 2))
    y = gen.integers(0, 2, size=200)
    a, pres = x, []
    for w in net.weights:
        pres.append(a @ w.T)
        a = np.where(pres[-1] > 0.0, pres[-1], np.expm1(np.minimum(pres[-1], 0.0)))
    _, ref = _loss_and_logit_grad(a, y)
    for j in range(net.n_layers - 1, -1, -1):
        ref = ref * np.where(pres[j] > 0.0, 1.0, np.exp(np.minimum(pres[j], 0.0)))
        ref = ref @ net.weights[j]
    _, grads = per_sample_losses_and_input_grads(net, x, y)
    assert np.allclose(grads, ref, rtol=1e-12, atol=1e-15)
