import collections
import math

import numpy as np
import pytest

from hellcert.finite_sample import ConfidenceBudget, EmpiricalSample, corollary_upper_bound
from hellcert.network import (SmallNetwork, lipschitz_profile, jsd_head_constants, per_sample_losses,
                              per_sample_losses_and_input_grads, train_network)
from hellcert import synthetic
from hellcert.rng import stream
from hellcert.synthetic import (
    InnerAscentError,
    compare_certificates,
    dual_gamma_grid,
    gramian_certificate_on_task,
    lipschitz_certificate,
    maximize_penalized,
    sample_task,
    shift_distances,
    wasserstein_dual_certificate,
)

HELLINGER_DELTA_2 = 0.6272713450233213  # sqrt(1 - exp(-1/2)), mpmath


@pytest.fixture(scope="module")
def small_trained():
    data = sample_task(n_train=800, n_eval=2000, seed=4)
    net = SmallNetwork.initialize(hidden=(4, 2), seed=4)
    net = train_network(net, data.x_train, data.y_train, steps=600).network
    return data, net


def test_shift_distances():
    assert shift_distances(0.0) == (0.0, 0.0)
    w, h = shift_distances(2.0)
    assert w == 2.0
    assert h == pytest.approx(HELLINGER_DELTA_2, abs=1e-14)
    assert shift_distances(100.0)[1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        shift_distances(-1.0)


def test_sample_task_statistics():
    data = sample_task(n_train=10, n_eval=10000, seed=8)
    n = data.y_eval.size
    balance = data.y_eval.mean()
    assert abs(balance - 0.5) <= 3 * math.sqrt(0.25 / n)
    pos = data.x_eval[data.y_eval == 1]
    se = 1.0 / math.sqrt(pos.shape[0])
    assert abs(pos[:, 0].mean() - 2.0) <= 3 * se
    assert abs(pos[:, 1].mean() - 0.0) <= 3 * se


def test_maximize_penalized_linear_closed_form():
    # f(x) = a.x: maximizer x0 + a/(2 gamma), value a.x0 + ||a||^2/(4 gamma).
    a = np.array([0.7, -0.3])
    x0 = stream(31).standard_normal((20, 2))
    gamma = 2.5

    def value_and_grad(x):
        return x @ a, np.tile(a, (x.shape[0], 1))

    phi, x_star = maximize_penalized(value_and_grad, x0, gamma)
    expect_x = x0 + a / (2 * gamma)
    expect_phi = x0 @ a + (a @ a) / (4 * gamma)
    assert np.allclose(x_star, expect_x, atol=1e-7)
    assert np.allclose(phi, expect_phi, atol=1e-7)


def test_maximize_penalized_evaluates_once_per_iteration():
    # f(x) = -||x - c_i||^2 row-wise, with a centre per row so rows stop at
    # different passes.  Each pass takes each moving row to a new point, the
    # last point a row is evaluated at is the one returned, with its own
    # value, and a row that stopped is never evaluated again.
    x0 = stream(32).standard_normal((6, 2))
    c = x0 + np.logspace(-9, 1, 6)[:, None] * np.array([0.4, -1.1])
    gamma = 3.0
    seen = []  # (row ids, x) per pass

    def value_and_grad(x, ids):
        seen.append((ids.copy(), x.copy()))
        return -np.sum((x - c[ids]) ** 2, axis=1), -2.0 * (x - c[ids])

    phi, x_star = maximize_penalized(value_and_grad, x0, gamma, row_args=(np.arange(6),))
    assert len(seen) > 2
    assert [ids.size for ids, _ in seen] == sorted((ids.size for ids, _ in seen), reverse=True)
    assert seen[-1][0].size < 6
    for row in range(6):
        points = [x[list(ids).index(row)] for ids, x in seen if row in ids]
        assert all(not np.array_equal(a, b) for a, b in zip(points, points[1:]))
        assert np.array_equal(points[-1], x_star[row])
    expect = -np.sum((x_star - c) ** 2, axis=1) - gamma * np.sum((x_star - x0) ** 2, axis=1)
    assert np.array_equal(phi, expect)


def full_batch_ascent(value_and_grad, x0, gamma, max_steps=500, grad_tol=1e-6):
    """The inner ascent before compaction: every row steps until the slowest converges."""
    x = x0.copy()
    step = 1.0 / (2.0 * gamma)
    for _ in range(max_steps):
        values, grads = value_and_grad(x)
        total_grad = grads - 2.0 * gamma * (x - x0)
        if float(np.max(np.linalg.norm(total_grad, axis=1))) < grad_tol:
            break
        x = x + step * total_grad
    else:
        raise AssertionError("reference ascent did not converge")
    return values - gamma * np.sum((x - x0) ** 2, axis=1), x


def test_compacted_ascent_within_strong_concavity_bound_of_full_batch(small_trained):
    # gamma >= L* makes each inner problem (2 gamma - L*)-strongly concave, so
    # an iterate with total gradient g lies within |g|^2 / (2 gamma) of the
    # maximum, and both ascents stop below grad_tol.
    data, net = small_trained
    x, y = data.x_eval, data.y_eval
    grid = dual_gamma_grid(lipschitz_profile(net).l_star)
    grad_tol = 1e-6

    def full(xb):
        return per_sample_losses_and_input_grads(net, xb, y)

    def rows(xb, yb):
        return per_sample_losses_and_input_grads(net, xb, yb)

    start = rows(x, y)
    for gamma in grid[[0, 5, 11, 23]]:
        gamma = float(gamma)
        ref_phi, _ = full_batch_ascent(full, x, gamma, grad_tol=grad_tol)
        phi, x_star = maximize_penalized(rows, x, gamma, grad_tol=grad_tol, start=start,
                                         row_args=(y,))
        gap = np.abs(phi - ref_phi)
        assert np.all(gap <= grad_tol**2 / (2.0 * gamma) + 4.0 * np.spacing(np.abs(ref_phi)))
        # Every returned row is a stopping point in its own right.
        values, grads = full(x_star)
        total_grad = grads - 2.0 * gamma * (x_star - x)
        assert np.all(np.linalg.norm(total_grad, axis=1) < grad_tol)
        assert np.all(phi >= start[0])


def test_compacted_ascent_raises_when_rows_still_move(small_trained):
    data, net = small_trained
    x, y = data.x_eval[:500], data.y_eval[:500]
    gamma = float(lipschitz_profile(net).l_star)

    def rows(xb, yb):
        return per_sample_losses_and_input_grads(net, xb, yb)

    with pytest.raises(InnerAscentError, match="stalled"):
        maximize_penalized(rows, x, gamma, max_steps=2, row_args=(y,))


def test_dual_certificate_evaluates_x0_once_per_network(monkeypatch):
    at_x0 = collections.Counter()
    dual_points = []  # the x of each dual certificate, one per network
    input_grads = synthetic.per_sample_losses_and_input_grads
    dual = synthetic.wasserstein_dual_certificate

    def recorded_dual(net, x, y, budgets, grid=None):
        dual_points.append(x)
        return dual(net, x, y, budgets, grid)

    def counted(net, xb, yb, workspace=None):
        if xb.shape == dual_points[-1].shape and np.array_equal(xb, dual_points[-1]):
            at_x0[len(dual_points)] += 1
        return input_grads(net, xb, yb, workspace)

    monkeypatch.setattr(synthetic, "per_sample_losses_and_input_grads", counted)
    monkeypatch.setattr(synthetic, "wasserstein_dual_certificate", recorded_dual)
    compare_certificates(widths=(2, 3), depths=(1,), delta_grid=(0.5,), seed=3,
                         n_train=200, n_eval=300, train_steps=100)
    assert at_x0 == {1: 1, 2: 1}


def test_dual_gamma_grid_spans_concave_regime():
    grid = dual_gamma_grid(1.5)
    assert grid.size == 24
    assert grid[0] == pytest.approx(1.5)
    assert grid[-1] == pytest.approx(96.0)
    assert np.all(np.diff(grid) > 0)


def test_dual_certificate_rejects_nonconcave_gamma(small_trained):
    data, net = small_trained
    l_star = lipschitz_profile(net).l_star
    with pytest.raises(ValueError, match="concave"):
        wasserstein_dual_certificate(
            net, data.x_eval[:50], data.y_eval[:50], [0.1], [l_star * 0.5]
        )


def test_dual_certificate_zero_budget_limit(small_trained):
    data, net = small_trained
    x, y = data.x_eval[:500], data.y_eval[:500]
    emp = float(per_sample_losses(net, x, y).mean())
    (cert,) = wasserstein_dual_certificate(net, x, y, [0.01**2])
    assert cert >= emp - 1e-9  # phi_gamma >= loss at the data point
    assert abs(cert - emp) <= 0.02


def test_dual_certificate_monotone_in_budget(small_trained):
    data, net = small_trained
    x, y = data.x_eval[:300], data.y_eval[:300]
    grid = dual_gamma_grid(lipschitz_profile(net).l_star)
    values = wasserstein_dual_certificate(net, x, y, [0.0, 0.1, 0.5, 2.0], grid)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_lipschitz_certificate_form(small_trained):
    data, net = small_trained
    x, y = data.x_eval[:400], data.y_eval[:400]
    emp = float(per_sample_losses(net, x, y).mean())
    c0, c1, c2 = lipschitz_certificate(net, x, y, [0.0, 1.0, 2.0])
    assert c0 == pytest.approx(emp, abs=1e-15)
    # Linear in the budget with slope = head constant * product of norms.
    l0, _ = jsd_head_constants()
    norms = [float(np.linalg.svd(w, compute_uv=False)[0]) for w in net.weights]
    slope = l0 * math.prod(norms)
    assert c2 - c1 == pytest.approx(slope, abs=1e-8)
    assert slope <= l0 + 1e-9  # all norms at most 1


def test_gramian_certificate_depends_only_on_loss_statistics(small_trained):
    data, _ = small_trained
    for width, seed in ((2, 14), (8, 15)):
        net = SmallNetwork.initialize(hidden=(width, width), seed=seed)
        net = train_network(net, data.x_train, data.y_train, steps=200).network
        (cert,) = gramian_certificate_on_task(net, data.x_eval, data.y_eval, [0.5], 0.01)
        losses = per_sample_losses(net, data.x_eval, data.y_eval)
        _, rho = shift_distances(0.5)
        replay = corollary_upper_bound(
            EmpiricalSample(losses, 1.0), rho, ConfidenceBudget(0.01)
        )
        assert cert.bound == replay.bound
        assert cert.radius == rho


def test_gramian_certificate_monotone_in_shift(small_trained):
    data, net = small_trained
    reports = gramian_certificate_on_task(net, data.x_eval, data.y_eval, [0.0, 0.3, 0.8, 1.5], 0.01)
    bounds = [r.bound for r in reports]
    assert all(b >= a - 1e-12 for a, b in zip(bounds, bounds[1:]))
    # Zero dislocation collapses to the radius-0 certificate: the mean loss.
    emp = float(per_sample_losses(net, data.x_eval, data.y_eval).mean())
    assert bounds[0] == emp


def test_dual_certificate_grid_entries_match_one_element_calls(small_trained):
    data, net = small_trained
    x, y = data.x_eval[:200], data.y_eval[:200]
    grid = dual_gamma_grid(lipschitz_profile(net).l_star)
    budgets = np.array([0.0, 0.25, 1.0, 4.0])
    certs = wasserstein_dual_certificate(net, x, y, budgets, grid)
    assert certs.shape == budgets.shape
    for b, cert in zip(budgets, certs):
        assert [cert] == list(wasserstein_dual_certificate(net, x, y, [b], grid))
    with pytest.raises(ValueError, match="non-negative"):
        wasserstein_dual_certificate(net, x, y, np.array([0.5, -1e-9, 1.0]), grid)


def test_lipschitz_and_gramian_grid_entries_match_one_element_calls(small_trained):
    data, net = small_trained
    x, y = data.x_eval[:300], data.y_eval[:300]
    deltas = [0.0, 0.3, 1.5]
    lips = lipschitz_certificate(net, x, y, np.array(deltas))
    grams = gramian_certificate_on_task(net, x, y, deltas, 0.01)
    assert lips.shape == (3,) and len(grams) == 3
    for d, lip, gram in zip(deltas, lips, grams):
        assert [lip] == list(lipschitz_certificate(net, x, y, [d]))
        (single,) = gramian_certificate_on_task(net, x, y, [d], 0.01)
        assert (gram.radius, gram.raw_bound, gram.bound) == (single.radius, single.raw_bound, single.bound)
    # A radius beyond the Gramian validity radius costs only its own entry.
    beyond = [0.3, 50.0]
    mixed = gramian_certificate_on_task(net, x, y, beyond, 0.01)
    assert mixed[0].bound == grams[1].bound and mixed[1] is None
    assert gramian_certificate_on_task(net, x, y, [50.0], 0.01) == [None]
    with pytest.raises(ValueError, match="non-negative"):
        lipschitz_certificate(net, x, y, np.array([0.5, -1e-9]))


def test_compare_certificates_evaluates_unshifted_losses_once_per_certificate(monkeypatch):
    losses_calls, profile_calls = collections.Counter(), collections.Counter()
    nets = []  # holds every network, so no id is reused
    losses, profile = synthetic.per_sample_losses, synthetic.lipschitz_profile

    def counted_losses(net, x, y):
        nets.append(net)
        losses_calls[id(net), x.tobytes()] += 1
        return losses(net, x, y)

    def counted_profile(net):
        nets.append(net)
        profile_calls[id(net)] += 1
        return profile(net)

    monkeypatch.setattr(synthetic, "per_sample_losses", counted_losses)
    monkeypatch.setattr(synthetic, "lipschitz_profile", counted_profile)
    delta_grid = (0.01, 0.5, 1.0)
    compare_certificates(
        widths=(2, 3), depths=(1,), delta_grid=delta_grid, seed=3,
        n_train=200, n_eval=300, train_steps=100,
    )
    # Per network: each shifted set once, and the unshifted set once for the
    # Gramian and once for the Lipschitz certificate, whatever the grid size.
    assert sorted(losses_calls.values()) == [1] * 6 + [2] * 2
    # One profile for the dual's concavity check, one for the Lipschitz slope.
    assert list(profile_calls.values()) == [2, 2]


def test_compare_certificates_solves_each_inner_ascent_once_per_network(monkeypatch):
    calls, duals = [], []
    ascent = synthetic.maximize_penalized
    dual = synthetic.wasserstein_dual_certificate

    def counted_ascent(*args, **kwargs):
        calls.append((len(duals), args[2]))  # (network, gamma)
        return ascent(*args, **kwargs)

    def recorded_dual(net, x, y, budgets, grid=None):
        duals.append((net, x, y, grid))
        return dual(net, x, y, budgets, grid)

    monkeypatch.setattr(synthetic, "maximize_penalized", counted_ascent)
    monkeypatch.setattr(synthetic, "wasserstein_dual_certificate", recorded_dual)
    delta_grid = (0.01, 0.5, 1.0)
    rows = compare_certificates(
        widths=(2, 3), depths=(1,), delta_grid=delta_grid, seed=3,
        n_train=200, n_eval=300, train_steps=100,
    )
    assert len(duals) == 2 and len(rows) == 2 * len(delta_grid)
    assert len(calls) == 2 * synthetic.DUAL_GRID_POINTS
    assert len(set(calls)) == len(calls)  # one call per gamma per network
    for k, row in enumerate(rows):
        net, x, y, grid = duals[k // len(delta_grid)]
        assert [row.dual_cert] == list(dual(net, x, y, [row.norm_delta**2], grid))
