"""Gaussian-mixture benchmark comparing the Hellinger certificate with
Wasserstein baselines.

Binary task X | Y=y ~ N(y * mu, I_2) with mu = (2, 0), equal priors, shifts
modeled as dislocations X -> X + delta toward the negative class.  Both
shift distances then have closed forms in ||delta||: the 2-Wasserstein
distance is ||delta|| and the Hellinger distance is
sqrt(1 - exp(-||delta||^2 / 8)), so the three certificates can be put on a
common axis:

* the Gramian certificate: finite-sample upper bound on the JSD loss at the
  Hellinger radius, blind to the network internals;
* the dual certificate: min over gamma >= L* of gamma * budget + mean of the
  per-point penalized maxima sup_x {loss(x) - gamma ||x - x0||^2} (concave
  inner problems because gamma dominates the gradient Lipschitz constant),
  scanned upward over the gamma grid until convexity in gamma proves that
  no later gamma can lower any budget's minimum;
* the Lipschitz certificate: empirical loss plus loss Lipschitz constant
  times transport distance.

One evaluation of each network on the unshifted points, losses and input
gradients, and one Lipschitz profile serve all three: the dual starts its
ascents from the evaluation and takes L*, the Gramian certificate takes the
losses, and the Lipschitz certificate their mean and alpha_L.  Each takes
the network's whole grid of shifts in one call and returns one value per
grid entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .finite_sample import (
    ConfidenceBudget,
    EmpiricalSample,
    corollary_upper_bound,
    max_valid_radius_empirical,
)
from .network import (
    SmallNetwork,
    Workspace,
    lipschitz_profile,
    jsd_head_constants,
    per_sample_losses,
    per_sample_losses_and_input_grads,
    train_network,
)
from .rng import stream

__all__ = [
    "TaskData",
    "InnerAscentError",
    "sample_task",
    "shift_distances",
    "dual_gamma_grid",
    "maximize_penalized",
    "wasserstein_dual_certificate",
    "lipschitz_certificate",
    "gramian_certificate_on_task",
    "compare_certificates",
    "SweepRow",
]

MU = np.array([2.0, 0.0])  # class 1 sits at +MU, class 0 at -MU
SHIFT_DIRECTION = np.array([-1.0, 0.0])  # unit vector toward the negative class
DUAL_GRID_POINTS = 24
DUAL_GRID_SPAN = 64.0
GRAD_TOL = 1e-6  # gradient norm at which an inner ascent row stops
MAX_ASCENT_STEPS = 500  # evaluations before an inner ascent is declared stalled


class InnerAscentError(RuntimeError):
    """The concave inner maximization failed to reach the gradient tolerance."""


@dataclass(frozen=True)
class TaskData:
    x_train: np.ndarray
    y_train: np.ndarray  # class indices {0, 1}
    x_eval: np.ndarray
    y_eval: np.ndarray


def sample_task(n_train: int, n_eval: int, seed: int) -> TaskData:
    """Deterministic draw of the training and evaluation sets."""
    gen = stream(seed)

    def draw(n):
        y = gen.integers(0, 2, size=n)
        signs = 2.0 * y - 1.0
        x = signs[:, None] * MU[None, :] + gen.standard_normal((n, MU.size))
        return x, y

    x_train, y_train = draw(n_train)
    x_eval, y_eval = draw(n_eval)
    return TaskData(x_train=x_train, y_train=y_train, x_eval=x_eval, y_eval=y_eval)


def shift_distances(norm_delta: float):
    """(Wasserstein, Hellinger) distances induced by a dislocation of size ||delta||."""
    if not 0.0 <= norm_delta < math.inf:
        raise ValueError(f"shift size must be finite and non-negative, got {norm_delta}")
    return norm_delta, math.sqrt(1.0 - math.exp(-norm_delta * norm_delta / 8.0))


def dual_gamma_grid(l_star: float):
    """Geometric grid of DUAL_GRID_POINTS from L* to DUAL_GRID_SPAN * L*;
    every point keeps the inner problem concave."""
    return np.geomspace(l_star, DUAL_GRID_SPAN * l_star, DUAL_GRID_POINTS)


def _row_sums_of_squares(a: np.ndarray) -> np.ndarray:
    """Per-row sums of squares, folded over the (few) columns rather than
    reduced along rows, which runs one short inner loop per row."""
    return functools.reduce(np.add, (a * a).T)


def maximize_penalized(value_and_grad, x0: np.ndarray, gamma: float, start, row_args=()):
    """Maximize f(x) - gamma ||x - x0||^2 rows-independently by gradient ascent.

    ``value_and_grad(x, *row_args)`` maps a batch of rows to per-row values
    and gradients of f; each array in ``row_args`` (labels, say) is indexed
    by row and arrives cut to the rows of the batch.  ``start`` is
    ``value_and_grad(x0, *row_args)``, so ascents from one x0 at several
    gammas share the first evaluation.

    Concavity (gamma above the gradient Lipschitz constant of f) makes the
    ascent globally convergent; the step 1/(2 gamma) matches the curvature of
    the penalty so convergence is geometric.  A row stops at its first
    iterate whose total gradient norm is below ``GRAD_TOL``: its value and x
    are final there, and later passes evaluate only the rows still moving.
    Strong concavity puts each value within GRAD_TOL^2 / (2 gamma) of the
    row's maximum, and starting at x0 itself guarantees it is at least
    f(x0).  Raises :class:`InnerAscentError` if a row is still moving after
    ``MAX_ASCENT_STEPS`` evaluations.
    """
    phi = np.empty(x0.shape[0])
    x_out = np.empty_like(x0)
    rows = np.arange(x0.shape[0])  # positions of the rows still moving
    x, x0_rows, args = x0, x0, tuple(row_args)
    step = 1.0 / (2.0 * gamma)
    for _ in range(MAX_ASCENT_STEPS):
        values, grads = value_and_grad(x, *args) if start is None else start
        start = None
        shift = x - x0_rows
        total_grad = grads - 2.0 * gamma * shift
        done = np.sqrt(_row_sums_of_squares(total_grad)) < GRAD_TOL
        if done.any():
            # take() with integer positions: a boolean mask costs ten times more.
            stop, keep = np.flatnonzero(done), np.flatnonzero(~done)
            finished = rows.take(stop)
            x_out[finished] = x.take(stop, axis=0)
            penalties = gamma * _row_sums_of_squares(shift.take(stop, axis=0))
            phi[finished] = values.take(stop) - penalties
            rows, x, x0_rows, total_grad, *args = (
                a.take(keep, axis=0) for a in (rows, x, x0_rows, total_grad, *args))
        if rows.size == 0:
            return phi, x_out
        x = x + step * total_grad
    raise InnerAscentError(
        f"inner ascent at gamma={gamma:.6g} stalled above gradient tolerance {GRAD_TOL}"
    )


def _budgets(shift_budgets) -> np.ndarray:
    budgets = np.asarray(shift_budgets, dtype=float)
    if np.any(budgets < 0):
        raise ValueError("shift budget must be non-negative")
    return budgets


def wasserstein_dual_certificate(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray, start,
                                 l_star: float, shift_budgets):
    """Dual upper bound min over gamma of gamma * budget + mean penalized maximum.

    ``start`` is ``per_sample_losses_and_input_grads(net, x, y_idx)``, where
    every gamma's ascent starts, and ``l_star`` the network's gradient
    Lipschitz constant, where :func:`dual_gamma_grid` starts so that every
    inner problem is concave.  Each gamma's mean carries the ascent's
    shortfall GRAD_TOL^2 / (2 gamma), so that it bounds the exact mean of
    the penalized maxima from above.  ``shift_budgets`` are Wasserstein
    budgets in the units of the cost ||x - x0||^2 (a dislocation delta has
    budget ||delta||^2), one certificate each; the penalized maxima do not
    depend on the budget, so each gamma's inner ascent runs once.

    The scan goes up the grid and stops once every budget has risen:
    T(gamma) = gamma * budget + mean sup_x {loss(x) - gamma ||x - x0||^2}, a
    sup of functions affine in gamma, is convex, and each computed value
    lies in [T, T + shortfall], so a value above the previous gamma's by at
    least both shortfalls proves T rose past that previous value, which by
    convexity no later gamma's value can go below: the full scan's bits.  A
    zero budget's T falls with gamma and never rises, so it scans it all;
    an infinite budget's value is infinite at once and counts as risen.
    """
    budgets = _budgets(shift_budgets)
    y_idx = np.asarray(y_idx)
    workspace = Workspace.per_sample(net, len(x))

    def value_and_grad(xb, yb):
        return per_sample_losses_and_input_grads(net, xb, yb, workspace)

    best = last = np.full(budgets.shape, math.inf)
    last_shortfall = 0.0
    risen = np.zeros(budgets.shape, dtype=bool)
    for gamma in map(float, dual_gamma_grid(l_star)):
        phi, _ = maximize_penalized(value_and_grad, x, gamma, start, row_args=(y_idx,))
        shortfall = GRAD_TOL * GRAD_TOL / (2.0 * gamma)
        values = gamma * budgets + float(phi.mean()) + shortfall
        best = np.minimum(best, values)
        risen |= values >= last + (shortfall + last_shortfall)  # inf >= inf: a vacuous budget
        if risen.all():
            break
        last, last_shortfall = values, shortfall
    return best


def lipschitz_certificate(mean_loss: float, alpha: float, shift_budgets):
    """Empirical loss plus (head constant * alpha_L) times each W1 transport budget."""
    l0_head, _ = jsd_head_constants()
    return mean_loss + l0_head * alpha * _budgets(shift_budgets)


def gramian_certificate_on_task(losses: np.ndarray, norm_deltas, confidence_delta: float = 0.01):
    """Finite-sample JSD certificates at the Hellinger radii the dislocations induce.

    Returns the certificate's maximum valid radius on ``losses`` and one
    report per ||delta||, None where the report is vacuous, so that one
    invalid delta does not cost the others.
    """
    sample = EmpiricalSample(losses, ceiling=1.0)
    budget = ConfidenceBudget(confidence_delta)
    reports = (corollary_upper_bound(sample, shift_distances(nd)[1], budget) for nd in norm_deltas)
    return max_valid_radius_empirical(sample, budget), [None if r.vacuous else r for r in reports]


@dataclass(frozen=True)
class SweepRow:
    """One row of the sweep CSV; the fields, in order, are its columns.

    ``gramian_cert`` is None, an empty cell, where the Hellinger radius
    exceeds ``gramian_max_valid_radius``.
    """

    norm_delta: float
    hellinger: float
    wasserstein: float
    empirical_loss_shifted: float
    gramian_cert: float | None
    gramian_max_valid_radius: float
    dual_cert: float
    lipschitz_cert: float
    width: int
    depth: int
    seed: int


def compare_certificates(
    widths=(16,),
    depths=(2,),
    delta_grid=(0.01, 0.5, 1.0, 1.5, 2.0),
    seed: int = 0,
    confidence_delta: float = 0.01,
    n_train: int = 2000,
    n_eval: int = 10000,
    train_steps: int = 2000,
):
    """Full architecture/perturbation sweep behind the comparison figure.

    One unshifted draw of the task serves every (width, depth): a fresh
    network is trained on it, and each ||delta|| grid point then yields the
    three certificates plus the actually measured loss under the dislocation
    along SHIFT_DIRECTION.  The dual's budget is the dislocation's transport
    cost ||delta||^2.
    """
    data = sample_task(n_train, n_eval, seed)
    distances = [shift_distances(d) for d in delta_grid]
    # d * d is +inf past about 1.3e154, where d**2 raises: a vacuous budget.
    budgets = [d * d for d in delta_grid]
    rows = []
    for depth in depths:
        for width in widths:
            net = SmallNetwork.initialize(hidden=(width,) * depth, seed=seed)
            net = train_network(net, data.x_train, data.y_train, steps=train_steps).network
            start = per_sample_losses_and_input_grads(net, data.x_eval, data.y_eval)
            losses = start[0]
            profile = lipschitz_profile(net)
            duals = wasserstein_dual_certificate(
                net, data.x_eval, data.y_eval, start, profile.l_star, budgets
            )
            valid, grams = gramian_certificate_on_task(losses, delta_grid, confidence_delta)
            lips = lipschitz_certificate(
                float(losses.mean()), profile.alpha[-1], [w for w, _ in distances]
            )
            for norm_delta, (wasserstein, hellinger), dual, gram, lip in zip(
                delta_grid, distances, duals, grams, lips
            ):
                x_shifted = data.x_eval + norm_delta * SHIFT_DIRECTION[None, :]
                shifted_loss = float(
                    per_sample_losses(net, x_shifted, data.y_eval).mean()
                )
                rows.append(
                    SweepRow(
                        norm_delta=float(norm_delta),
                        hellinger=hellinger,
                        wasserstein=wasserstein,
                        empirical_loss_shifted=shifted_loss,
                        gramian_cert=None if gram is None else gram.bound,
                        gramian_max_valid_radius=valid,
                        dual_cert=float(dual),
                        lipschitz_cert=float(lip),
                        width=int(width),
                        depth=int(depth),
                        seed=int(seed),
                    )
                )
    return rows
