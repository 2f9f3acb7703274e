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
  inner problems because gamma dominates the gradient Lipschitz constant);
* the Lipschitz certificate: empirical loss plus loss Lipschitz constant
  times transport distance.

Each certificate takes a network's whole grid of shifts in one call and
returns one value per grid entry.
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
    if norm_delta < 0:
        raise ValueError("shift size must be non-negative")
    return norm_delta, math.sqrt(1.0 - math.exp(-norm_delta * norm_delta / 8.0))


def dual_gamma_grid(l_star: float):
    """Geometric grid of DUAL_GRID_POINTS from L* to DUAL_GRID_SPAN * L*;
    every point keeps the inner problem concave."""
    return np.geomspace(l_star, DUAL_GRID_SPAN * l_star, DUAL_GRID_POINTS)


def _row_sums_of_squares(a: np.ndarray) -> np.ndarray:
    """Per-row sums of squares, folded over the (few) columns rather than
    reduced along rows, which runs one short inner loop per row."""
    return functools.reduce(np.add, (a * a).T)


def maximize_penalized(value_and_grad, x0: np.ndarray, gamma: float, max_steps: int = 500,
                       grad_tol: float = 1e-6, start=None, row_args=()):
    """Maximize f(x) - gamma ||x - x0||^2 rows-independently by gradient ascent.

    ``value_and_grad(x, *row_args)`` maps a batch of rows to per-row values
    and gradients of f; each array in ``row_args`` (labels, say) is indexed
    by row and arrives cut to the rows of the batch.  ``start`` is
    ``value_and_grad(x0, *row_args)`` when the caller already has it, so
    ascents from one x0 at several gammas share the first evaluation.

    Concavity (gamma above the gradient Lipschitz constant of f) makes the
    ascent globally convergent; the step 1/(2 gamma) matches the curvature of
    the penalty so convergence is geometric.  A row stops at its first
    iterate whose total gradient norm is below ``grad_tol``: its value and x
    are final there, and later passes evaluate only the rows still moving.
    Strong concavity puts each value within grad_tol^2 / (2 gamma) of the
    row's maximum, and starting at x0 itself guarantees it is at least
    f(x0).  Raises :class:`InnerAscentError` if a row is still moving after
    ``max_steps`` evaluations.
    """
    phi = np.empty(x0.shape[0])
    x_out = np.empty_like(x0)
    rows = np.arange(x0.shape[0])  # positions of the rows still moving
    x, x0_rows, args = x0, x0, tuple(row_args)
    step = 1.0 / (2.0 * gamma)
    for _ in range(max_steps):
        values, grads = value_and_grad(x, *args) if start is None else start
        start = None
        shift = x - x0_rows
        total_grad = grads - 2.0 * gamma * shift
        done = np.sqrt(_row_sums_of_squares(total_grad)) < grad_tol
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
        f"inner ascent at gamma={gamma:.6g} stalled above gradient tolerance {grad_tol}"
    )


def wasserstein_dual_certificate(
    net: SmallNetwork,
    x: np.ndarray,
    y_idx: np.ndarray,
    shift_budgets,
    gamma_grid=None,
):
    """Dual upper bound min over gamma of gamma * budget + mean penalized maximum.

    ``shift_budgets`` are Wasserstein budgets in the same units as the cost
    ||x - x0||^2 (so a dislocation delta has budget ||delta||^2 under the
    default convention), one certificate each; the penalized maxima do not
    depend on the budget, so each gamma's inner ascent runs once.  Grid
    points below the gradient Lipschitz constant L* are rejected: concavity
    of the inner problem is what makes the inner maxima trustworthy.
    """
    budgets = np.asarray(shift_budgets, dtype=float)
    if np.any(budgets < 0):
        raise ValueError("shift budget must be non-negative")
    profile = lipschitz_profile(net)
    if gamma_grid is None:
        gamma_grid = dual_gamma_grid(profile.l_star)
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    if np.any(gamma_grid < profile.l_star * (1.0 - 1e-12)):
        raise ValueError("every gamma must be >= L* to keep the inner problem concave")

    y_idx = np.asarray(y_idx)
    workspace = Workspace(net, len(x))

    def value_and_grad(xb, yb):
        return per_sample_losses_and_input_grads(net, xb, yb, workspace)

    # Every gamma's ascent starts at x itself: evaluate it once.
    start = value_and_grad(x, y_idx)
    best = np.full(budgets.shape, math.inf)
    for gamma in gamma_grid:
        phi, _ = maximize_penalized(value_and_grad, x, float(gamma), start=start,
                                    row_args=(y_idx,))
        best = np.minimum(best, float(gamma) * budgets + float(phi.mean()))
    return best


def lipschitz_certificate(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray,
                          shift_budgets):
    """Empirical loss plus (head constant * alpha_L) times each W1 transport
    budget, from a single loss evaluation and Lipschitz profile."""
    budgets = np.asarray(shift_budgets, dtype=float)
    if np.any(budgets < 0):
        raise ValueError("shift budget must be non-negative")
    l0_head, _ = jsd_head_constants()
    profile = lipschitz_profile(net)
    slope = l0_head * profile.alpha[-1]
    return float(per_sample_losses(net, x, y_idx).mean()) + slope * budgets


def gramian_certificate_on_task(
    net: SmallNetwork,
    x: np.ndarray,
    y_idx: np.ndarray,
    norm_deltas,
    confidence_delta: float = 0.01,
):
    """Finite-sample JSD certificates at the Hellinger radii the dislocations induce.

    One report per ||delta|| from a single loss evaluation, None for a
    radius beyond the certificate's maximum valid radius, so that one
    invalid delta does not cost the others.
    """
    losses = per_sample_losses(net, x, y_idx)
    sample = EmpiricalSample(losses, ceiling=1.0)
    budget = ConfidenceBudget(confidence_delta)
    valid = max_valid_radius_empirical(sample, budget)
    radii = [shift_distances(nd)[1] for nd in norm_deltas]
    return [corollary_upper_bound(sample, h, budget) if h <= valid else None for h in radii]


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
    budget_convention: str = "squared",
    confidence_delta: float = 0.01,
    n_train: int = 2000,
    n_eval: int = 10000,
    train_steps: int = 2000,
):
    """Full architecture/perturbation sweep behind the comparison figure.

    One unshifted draw of the task serves every (width, depth): a fresh
    network is trained on it, and each ||delta|| grid point then yields the
    three certificates plus the actually measured loss under the dislocation
    along SHIFT_DIRECTION.
    """
    if budget_convention not in ("squared", "plain"):
        raise ValueError(f"unknown budget convention {budget_convention!r}")
    data = sample_task(n_train, n_eval, seed)
    budgets = [d**2 if budget_convention == "squared" else d for d in delta_grid]
    distances = [shift_distances(d) for d in delta_grid]
    rows = []
    for depth in depths:
        for width in widths:
            net = SmallNetwork.initialize(hidden=(width,) * depth, seed=seed)
            net = train_network(net, data.x_train, data.y_train, steps=train_steps).network
            # Each certificate takes the whole delta grid in one call, so it
            # evaluates the unshifted losses and the profile once per network.
            duals = wasserstein_dual_certificate(net, data.x_eval, data.y_eval, budgets)
            # The report at delta = 0 always exists and carries the validity
            # radius that every delta on this network's sample shares.
            at_zero, *grams = gramian_certificate_on_task(
                net, data.x_eval, data.y_eval, [0.0, *delta_grid], confidence_delta
            )
            lips = lipschitz_certificate(
                net, data.x_eval, data.y_eval, [w for w, _ in distances]
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
                        gramian_max_valid_radius=at_zero.max_valid_radius,
                        dual_cert=float(dual),
                        lipschitz_cert=float(lip),
                        width=int(width),
                        depth=int(depth),
                        seed=int(seed),
                    )
                )
    return rows
