import math
import tracemalloc

import numpy as np
import pytest

from hellcert.losses import jsd_loss_and_logit_grad, jsd_loss_vector, softmax_rows, true_class_positions
from hellcert.network import (
    ROWS_PER_PASS,
    SmallNetwork,
    TrainingDivergenceError,
    Workspace,
    _elu_inplace,
    batch_loss,
    batch_loss_and_param_grads,
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
    result = train_network(net, x, y, steps=2000)
    return x, y, result


def test_operator_norm_zero_matrix():
    sigma = operator_norm(np.zeros((3, 3)))
    assert isinstance(sigma, float) and sigma == 0.0


@pytest.mark.cpu_bits
def test_spectral_normalize_unit_ball():
    net = SmallNetwork(weights=[stream(7, j).standard_normal((6, 6)) * 3.0 for j in range(3)])
    spectral_normalize(net)
    for w in net.weights:
        assert float(np.linalg.svd(w, compute_uv=False)[0]) <= 1.0 + 1e-14


@pytest.mark.cpu_bits
def test_spectral_normalize_leaves_small_matrices_alone():
    w = np.eye(4) * 0.5
    net = SmallNetwork(weights=[w.copy()])
    spectral_normalize(net)
    assert np.array_equal(net.weights[0], w)


def test_param_gradients_match_finite_differences():
    net = SmallNetwork.initialize(hidden=(4, 2), seed=3)
    gen = stream(11)
    x = gen.standard_normal((40, 2))
    y = gen.integers(0, 2, size=40)
    grads = batch_loss_and_param_grads(net, x, y)
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
    with pytest.raises(TrainingDivergenceError, match="at step 0"):
        train_network(net, x, y, steps=5)


@pytest.mark.cpu_bits
def test_lipschitz_profile_single_unit_layer():
    net = SmallNetwork(weights=[np.eye(2)])
    prof = lipschitz_profile(net)
    assert prof.alpha == (1.0,)
    assert prof.beta == (1.0,)
    l0, l1 = jsd_head_constants()
    assert prof.l_star == pytest.approx(l0 * 1.0 + l1 * 1.0, abs=1e-12)


@pytest.mark.cpu_bits
def test_lipschitz_profile_alpha_bounded_by_one(trained_default):
    _, _, result = trained_default
    prof = lipschitz_profile(result.network)
    assert all(a <= 1.0 + 1e-6 for a in prof.alpha)
    assert prof.beta[-1] <= result.network.n_layers + 1e-6


def _near_tied(seed: int) -> np.ndarray:
    """A seeded 8x8 matrix whose top two singular values are 0.9 and 0.8991."""
    gen = stream(43, seed)
    u, _ = np.linalg.qr(gen.standard_normal((8, 8)))
    v, _ = np.linalg.qr(gen.standard_normal((8, 8)))
    return (u * np.array([0.9, 0.8991, *np.linspace(0.5, 0.1, 6)])) @ v.T


@pytest.mark.cpu_bits
def test_lipschitz_profile_matches_svd_products():
    # A power iteration reads low where the top two singular values nearly
    # tie; the profile must take LAPACK's norms exactly.
    for seed in range(20):
        gaussian = [stream(42, 2 * seed + j).standard_normal((5, 5)) * 0.4 for j in range(2)]
        near_tied = [_near_tied(2 * seed), _near_tied(2 * seed + 1)]
        for weights in (gaussian, near_tied):
            prof = lipschitz_profile(SmallNetwork(weights=weights))
            norms = [float(np.linalg.svd(w, compute_uv=False)[0]) for w in weights]
            assert prof.alpha == (norms[0], norms[0] * norms[1])


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-8):
    """Maximize a unimodal function on [lo, hi]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _jsd_head_objective(p):
    return math.log2((1.0 + p) / p) * p * (1.0 - p) / math.sqrt(2.0)


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


def test_jsd_head_constant_is_the_golden_section_maximum():
    # The stored constant is, bit for bit, what the search finds at tol 1e-8.
    _, l0 = golden_section_max(_jsd_head_objective, 1e-12, 1.0 - 1e-12, tol=1e-8)
    assert jsd_head_constants()[0] == l0


def test_jsd_head_maximizer_interior():
    # The objective vanishes at both endpoints, so the maximum is interior.
    x, v = golden_section_max(_jsd_head_objective, 1e-12, 1.0 - 1e-12, tol=1e-10)
    assert 0.05 < x < 0.95
    assert v > _jsd_head_objective(1e-9) and v > _jsd_head_objective(1.0 - 1e-9)


def test_input_gradients_match_exp_backprop_reference():
    # Reference backprop with ELU' = exp(z) on the pre-activations; the
    # library takes (exp(min(z, 0)) - 1) + 1 from its forward pass, equal to rounding.
    net = SmallNetwork.initialize(hidden=(8, 8), seed=5)
    gen = stream(13)
    x = 3.0 * gen.standard_normal((200, 2))
    y = gen.integers(0, 2, size=200)
    a, pres = x, []
    for w in net.weights:
        pres.append(a @ w.T)
        a = np.where(pres[-1] > 0.0, pres[-1], np.expm1(np.minimum(pres[-1], 0.0)))
    _, ref = jsd_loss_and_logit_grad(a, y)
    for j in range(net.n_layers - 1, -1, -1):
        ref = ref * np.where(pres[j] > 0.0, 1.0, np.exp(np.minimum(pres[j], 0.0)))
        ref = ref @ net.weights[j]
    _, grads = per_sample_losses_and_input_grads(net, x, y)
    assert np.allclose(grads, ref, rtol=1e-12, atol=1e-15)


# ------------------------------------------- references that allocate freshly


def _ref_elu_slope(z):
    # ELU' - 1 by the exp rule; its + 1 is exp(min(z, 0)) where that is >= 1/2.
    return np.exp(np.minimum(z, 0.0)) - 1.0


def _ref_elu(z):
    # The exp rule's branching form: z where z > 0, else exp(z) - 1, or z
    # itself where exp(z) rounds below 1 + z (only for |z| below about 2^-26).
    em1 = _ref_elu_slope(z)
    return np.where(z > 0.0, z, np.where(em1 < z, z, em1))


def _ref_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _ref_losses_and_param_grads(weights, x, y):
    posts, pres = [x], []
    for w in weights:
        # The library's forward operand: a C-contiguous (in, out) copy.
        pres.append(posts[-1] @ w.T.copy())
        posts.append(_ref_elu(pres[-1]))
    p = _ref_softmax(posts[-1])
    n = x.shape[0]
    py = p[np.arange(n), y]
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(py > 0.0, 0.5 * np.log(py / (1.0 + py)) / math.log(2.0) * py, 0.0)
    d = -coef[:, None] * p
    d[np.arange(n), y] += coef
    d = d / n
    grads = [None] * len(weights)
    for j in range(len(weights) - 1, -1, -1):
        d = d * (_ref_elu_slope(pres[j]) + 1.0)
        grads[j] = d.T @ posts[j]
        if j > 0:
            d = d @ weights[j]
    return jsd_loss_vector(py), grads


def _ref_spectral_normalize(weights):
    for j, w in enumerate(weights):
        sigma = float(np.linalg.svd(w, compute_uv=False)[0])
        if sigma > 1.0:
            weights[j] = w / sigma


def _ref_train(net, x, y, steps, check_every):
    weights = [w.copy() for w in net.weights]
    checkpoints = [float(_ref_losses_and_param_grads(weights, x, y)[0].mean())]
    for step in range(steps):
        _, grads = _ref_losses_and_param_grads(weights, x, y)
        weights = [w - 0.5 * g for w, g in zip(weights, grads)]
        _ref_spectral_normalize(weights)
        if (step + 1) % check_every == 0:
            checkpoints.append(float(_ref_losses_and_param_grads(weights, x, y)[0].mean()))
    if steps % check_every != 0:
        checkpoints.append(float(_ref_losses_and_param_grads(weights, x, y)[0].mean()))
    return weights, tuple(checkpoints)


# ------------------------------------------------------------------- kernels


def _elu_inputs():
    # Tiny negatives and subnormals are where exp(z) rounds to 1 and expm1(z) to z.
    edges = [0.0, -0.0, -1e-300, 1e-300, -5e-324, -2.0**-60, -1e-17, -800.0, 800.0,
             np.inf, -np.inf, np.nan]
    return np.concatenate([3.0 * stream(21).standard_normal(4988), edges]).reshape(-1, 8)


@pytest.mark.cpu_bits
def test_elu_inplace_equals_branching_form():
    z = _elu_inputs()
    ref = _ref_elu(z)
    got = _elu_inplace(z.copy(), np.empty_like(z))
    # Equal by value (so +0 == -0) and NaN where the reference has NaN.
    assert np.array_equal(got, ref, equal_nan=True)
    # Away from zero, equal bit for bit.
    nonzero = ref != 0.0
    assert np.array_equal(got[nonzero].view(np.int64), ref[nonzero].view(np.int64))


@pytest.mark.cpu_bits
def test_kept_slope_is_the_derivative_from_the_post_activation():
    # Backprop takes ELU' as the forward's slope + 1; it must be, bit for
    # bit, (exp(min(z, 0)) - 1) + 1, and within one rounding of min(a, 0) + 1
    # of the post-activation a = elu(z), which is exp(z) - 1 or z itself.
    z = _elu_inputs()
    slope = np.empty_like(z)
    post = _elu_inplace(z.copy(), slope)
    ref = _ref_elu_slope(z) + 1.0
    assert np.array_equal((slope + 1.0).view(np.int64), ref.view(np.int64))
    finite = np.isfinite(post)
    assert np.all(np.abs(slope + 1.0 - (np.minimum(post, 0.0) + 1.0))[finite] <= 2.0**-53)


@pytest.mark.cpu_bits
def test_elu_and_its_slope_are_within_2_pow_minus_52_of_expm1_and_exp():
    # Against correctly rounded references, on the kernel inputs plus dense
    # linear and logarithmic grids over [-40, 0].
    z = np.concatenate([_elu_inputs().ravel(), np.linspace(-40.0, 0.0, 100_001),
                        -(10.0 ** np.linspace(-20.0, math.log10(40.0), 20_001))])
    slope = np.empty_like(z)
    post = _elu_inplace(z.copy(), slope)
    finite = np.isfinite(z)
    pos, neg = finite & (z > 0.0), finite & (z <= 0.0)
    assert np.array_equal(post[pos].view(np.int64), z[pos].view(np.int64))
    assert np.all(post[neg] >= z[neg])
    expm1 = np.array([math.expm1(v) for v in z[neg]])
    assert np.max(np.abs(post[neg] - expm1)) <= 2.0**-52
    exp = np.array([math.exp(min(v, 0.0)) for v in z[finite]])
    assert np.max(np.abs(slope[finite] + 1.0 - exp)) <= 2.0**-52
    # ±0, ±inf, NaN and -800 give what the expm1 rule gave.
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -800.0])
    slope = np.empty_like(special)
    post = _elu_inplace(special.copy(), slope)
    old_slope = np.expm1(np.minimum(special, 0.0))
    assert np.array_equal(post, np.maximum(special, old_slope), equal_nan=True)
    assert np.array_equal(slope + 1.0, old_slope + 1.0, equal_nan=True)


@pytest.mark.parametrize("classes", [2, 8])
def test_column_folded_softmax_matches_axis_reductions(classes):
    logits = 4.0 * stream(22, classes).standard_normal((3000, classes))
    logits[:5] = [[-800.0] * classes, [800.0] * classes, [0.0] * classes,
                  [1e-300] * classes, list(range(classes))]
    got, ref = softmax_rows(logits), _ref_softmax(logits)
    if classes == 2:
        assert np.array_equal(got, ref)
    else:
        # From 8 terms up NumPy sums a row pairwise and the fold left to
        # right, so the row sum, hence each probability, may differ by the
        # rounding of 7 additions.
        np.testing.assert_allclose(got, ref, rtol=8 * np.finfo(float).eps, atol=0.0)


@pytest.mark.cpu_bits
def test_workspace_reuse_matches_fresh_calls():
    net = SmallNetwork.initialize(hidden=(8, 5), seed=6)
    gen = stream(23)
    ws = Workspace(net, 60)
    batches = [(gen.standard_normal((60, 2)), gen.integers(0, 2, size=60)),
               (2.0 * gen.standard_normal((60, 2)), gen.integers(0, 2, size=60)),
               (gen.standard_normal((17, 2)), gen.integers(0, 2, size=17))]
    kept = []
    for x, y in batches:
        fresh_grads = batch_loss_and_param_grads(net, x, y)
        grads = batch_loss_and_param_grads(net, x, y, ws)
        assert all(np.array_equal(g, f) for g, f in zip(grads, fresh_grads))
        fresh_losses, fresh_gx = per_sample_losses_and_input_grads(net, x, y)
        losses, gx = per_sample_losses_and_input_grads(net, x, y, ws)
        assert np.array_equal(losses, fresh_losses) and np.array_equal(gx, fresh_gx)
        assert batch_loss(net, x, y, ws) == batch_loss(net, x, y)
        kept.append((gx, gx.copy(), losses, losses.copy()))
    # Returned arrays belong to the caller: later calls leave them alone.
    for gx, gx_copy, losses, losses_copy in kept:
        assert np.array_equal(gx, gx_copy) and np.array_equal(losses, losses_copy)
    with pytest.raises(ValueError, match="exceeds"):
        per_sample_losses_and_input_grads(net, np.zeros((61, 2)), np.zeros(61, dtype=int), ws)


@pytest.mark.parametrize("n", [40, ROWS_PER_PASS + 5])
def test_passes_leave_the_callers_input_alone(n):
    # The backward pass writes each layer's error into the spent
    # post-activation buffer; the input is the first "post-activation".
    net = SmallNetwork.initialize(hidden=(16, 16), seed=27)
    gen = stream(27)
    x = 3.0 * gen.standard_normal((n, 2))
    y = gen.integers(0, 2, size=n)
    kept = x.copy()
    for ws in (None, Workspace(net, n)):
        batch_loss_and_param_grads(net, x, y, ws)
        assert np.array_equal(x.view(np.int64), kept.view(np.int64))
    for ws in (None, Workspace.per_sample(net, n)):
        per_sample_losses_and_input_grads(net, x, y, ws)
        assert np.array_equal(x.view(np.int64), kept.view(np.int64))


def test_warm_training_pass_allocates_nothing_of_layer_size():
    # The gradients and the loss head's (n, 2) error are fresh; nothing as
    # large as one (n, 16) layer buffer may be.
    n = 2000
    net = SmallNetwork.initialize(hidden=(16, 16), seed=28)
    gen = stream(28)
    x = 3.0 * gen.standard_normal((n, 2))
    y = gen.integers(0, 2, size=n)
    ws = Workspace(net, n)
    positions = true_class_positions(y, 2)
    batch_loss_and_param_grads(net, x, y, ws, positions)
    tracemalloc.start()
    try:
        batch_loss_and_param_grads(net, x, y, ws, positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 16 * 8


@pytest.mark.cpu_bits
def test_train_network_matches_fresh_allocating_reference():
    gen = stream(24)
    n = 300
    y = gen.integers(0, 2, size=n)
    x = (2.0 * y - 1.0)[:, None] * np.array([2.0, 0.0]) + gen.standard_normal((n, 2))
    net = SmallNetwork.initialize(hidden=(16, 16), seed=24)
    result = train_network(net, x, y, steps=30, check_every=7)
    weights, checkpoints = _ref_train(net, x, y, 30, 7)
    assert result.checkpoint_losses == checkpoints
    for got, ref in zip(result.network.weights, weights):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("batch", [1, 3, 7, 731, ROWS_PER_PASS, 10000])
@pytest.mark.cpu_bits
def test_rows_in_any_batch_size_match_the_full_batch(batch):
    # BLAS kernels may round a row differently at different batch sizes (the
    # 2-wide products, on OpenBLAS's SkylakeX kernels), and batches above
    # ROWS_PER_PASS run in blocks.  The drift is bounded in ulps of each
    # quantity's a-priori scale: the loss ceiling 1, and for d(loss)/dx the
    # head constant L0, which bounds its norm since alpha_L <= 1.  Ulps of
    # the value itself are not bounded where its terms cancel (p_y near 1).
    net = SmallNetwork.initialize(hidden=(16, 16), seed=26)
    gen = stream(26)
    n = 12000
    x = 3.0 * gen.standard_normal((n, 2))
    y = gen.integers(0, 2, size=n)
    full_losses, full_grads = per_sample_losses_and_input_grads(net, x, y)
    loss_ulp, grad_ulp = np.spacing(1.0), np.spacing(jsd_head_constants()[0])
    ws = Workspace.per_sample(net, batch)
    for start in range(0, n, batch)[:300]:
        rows = slice(start, start + batch)
        losses, grads = per_sample_losses_and_input_grads(net, x[rows], y[rows], ws)
        assert np.all(np.abs(losses - full_losses[rows]) <= 4 * loss_ulp)
        assert np.all(np.abs(grads - full_grads[rows]) <= 4 * grad_ulp)
