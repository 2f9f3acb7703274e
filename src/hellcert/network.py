"""Small dense ELU network with spectrally normalized weights.

Bias-free feedforward net x -> elu(W_L ... elu(W_1 x)) from 2-d inputs to
a binary softmax head with the bounded Jensen-Shannon loss, trained by
full-batch gradient descent at step ``LEARNING_RATE``.  Forward, parameter gradients and
input gradients are written out by hand (the loss-to-logits gradient has a
closed form), which keeps the whole benchmark dependency-free and makes the
finite-difference checks direct.

Passes are allocation-free: a :class:`Workspace` holds one post-activation
buffer and one slope buffer per layer, and the forward and backward passes
write into them with ``out=``.  ELU is computed in place as
max(z, exp(min(z, 0)) - 1), with no branch on the sign of z, and the forward
pass keeps exp(min(z, 0)) - 1 = ELU' - 1 in the slope buffer; the backward
pass adds 1 to it and multiplies the error by it in place, then writes the
error at the layer below into the spent post-activation buffer.  ``exp``
costs about 60% of ``expm1`` on a 2000 x 16 layer, and exp(z) - 1 is within
about 2^-53 of expm1(z) in absolute terms.
The loss head is :func:`losses.jsd_logit_grad`, whose softmax folds
its row max and row sum over the class columns, which beats an axis-1
reduction on rows this short.

Spectral normalization keeps every operator norm at most 1, which is what
the baseline certificates need: the gradient Lipschitz constant of the
loss-network composition follows from the per-layer recursion

    alpha_{l+1} = ||W_{l+1}|| alpha_l,
    beta_{l+1}  = ||W_{l+1}|| beta_l + ||W_{l+1}||^2 alpha_l^2

(unit ELU constants), closed by the softmax-JSD head constants.  Each
||W|| is the top singular value from LAPACK's SVD (:func:`operator_norm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import jsd_logit_grad, jsd_loss_and_logit_grad, true_class_positions
from .rng import stream

__all__ = [
    "SmallNetwork",
    "Workspace",
    "LipschitzProfile",
    "TrainResult",
    "TrainingDivergenceError",
    "batch_loss",
    "batch_loss_and_param_grads",
    "per_sample_losses",
    "per_sample_losses_and_input_grads",
    "operator_norm",
    "spectral_normalize",
    "train_network",
    "lipschitz_profile",
    "jsd_head_constants",
]

LEARNING_RATE = 0.5  # full-batch gradient descent step
ROWS_PER_PASS = 2048  # rows per block of a per-sample pass; its buffers stay L2-sized


class TrainingDivergenceError(RuntimeError):
    """Training gradients became non-finite."""


def _elu_inplace(z: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """ELU of z written over z, and ELU'(z) - 1 = exp(min(z, 0)) - 1 into ``slope``.

    max(z, exp(min(z, 0)) - 1) is z where z > 0 and exp(z) - 1 elsewhere,
    but z itself where |z| < about 2^-26 and exp(z) rounds below 1 + z; z is
    then within z^2 / 2 of expm1(z).  So the post-activation is never below
    z and lies within about 2^-53 of expm1(z).  The subtraction is exact
    where exp(z) >= 1/2 (Sterbenz), so slope + 1 gives back the rounded
    exp(z) there, and lies within 2^-54 of it below.
    """
    np.minimum(z, 0.0, out=slope)
    np.exp(slope, out=slope)
    slope -= 1.0
    return np.maximum(z, slope, out=z)


def _elu_backward(d: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """d * ELU'(z) written over d, from the forward pass's ``slope`` (spent after)."""
    slope += 1.0
    d *= slope
    return d


@dataclass
class SmallNetwork:
    """Weight matrices (out, in) per layer; ELU after every layer.

    Inputs are 2-d and the head is binary, the case
    :func:`jsd_head_constants` holds for.
    """

    weights: list

    @classmethod
    def initialize(cls, hidden=(4, 2), seed: int = 0):
        widths = (2, *hidden, 2)
        gen = stream(seed)
        weights = [
            gen.standard_normal((widths[j + 1], widths[j])) / math.sqrt(widths[j])
            for j in range(len(widths) - 1)
        ]
        net = cls(weights=weights)
        spectral_normalize(net)
        return net

    def copy(self) -> "SmallNetwork":
        return SmallNetwork(weights=[w.copy() for w in self.weights])

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray, workspace: "Workspace" = None) -> np.ndarray:
        """Logits for a batch of row vectors (a view into ``workspace`` when given)."""
        return self.activations(x, workspace)[-1]

    def activations(self, x: np.ndarray, workspace: "Workspace" = None):
        """Input and post-activations per layer, written into ``workspace``.

        Without a workspace the call builds its own.  The returned
        post-activations are views into the workspace, valid until its next
        use; the workspace's slope buffers keep ELU' - 1 of each layer for
        backprop.
        """
        a = np.asarray(x, dtype=float)
        ws = _workspace(self, a, workspace)
        posts = [a]
        for w, out, slope in zip(self.weights, *ws.rows(a.shape[0])):
            # A C-contiguous (in, out) operand: OpenBLAS's SkylakeX kernels
            # run the view w.T on their NT small-matrix path, 2-3x slower.
            np.matmul(posts[-1], w.T.copy(), out=out)
            posts.append(_elu_inplace(out, slope))
        return posts


class Workspace:
    """Buffers for passes of one network over batches of up to ``n`` rows.

    One post-activation buffer and one slope buffer (ELU' - 1) per layer; a
    batch of m <= n rows uses their leading m rows, which stay C-contiguous.
    Passes overwrite them, so a workspace serves one pass at a time.
    """

    def __init__(self, net: SmallNetwork, n: int):
        self.n = n
        self._posts = [np.empty((n, w.shape[0])) for w in net.weights]
        self._slopes = [np.empty((n, w.shape[0])) for w in net.weights]

    @classmethod
    def per_sample(cls, net: SmallNetwork, n: int) -> "Workspace":
        """Workspace for per-sample passes over batches of up to ``n`` rows.

        Those passes run in blocks of ``ROWS_PER_PASS`` rows, so it holds
        min(n, ``ROWS_PER_PASS``).
        """
        return cls(net, min(n, ROWS_PER_PASS))

    def rows(self, m: int):
        """The leading m rows of every post-activation buffer and of every slope buffer."""
        if m > self.n:
            raise ValueError(f"batch of {m} rows exceeds the workspace's {self.n}")
        return [post[:m] for post in self._posts], [slope[:m] for slope in self._slopes]


def _workspace(net: SmallNetwork, x, workspace) -> Workspace:
    return Workspace(net, len(x)) if workspace is None else workspace


def per_sample_losses(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray,
                      workspace: Workspace = None) -> np.ndarray:
    losses, _ = _per_sample_pass(net, x, y_idx, workspace, input_grads=False)
    return losses


def batch_loss(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray,
               workspace: Workspace = None) -> float:
    return float(per_sample_losses(net, x, y_idx, workspace).mean())


def batch_loss_and_param_grads(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray,
                               workspace: Workspace = None, positions=None) -> list:
    """Gradients of the mean batch loss for every weight matrix.

    The loss itself is not computed (:func:`batch_loss` gives it); the name
    is the one the benchmark's traced run times the training pass by.
    ``positions`` is ``losses.true_class_positions`` of ``y_idx``, for
    callers that pass one label vector step after step.
    """
    y_idx = np.asarray(y_idx)
    ws = _workspace(net, x, workspace)
    posts = net.activations(x, ws)
    n = posts[0].shape[0]
    slopes = ws.rows(n)[1]
    _, d = jsd_logit_grad(posts[-1], y_idx, positions)
    d /= n
    grads = [None] * net.n_layers
    for j in range(net.n_layers - 1, -1, -1):
        d = _elu_backward(d, slopes[j])
        grads[j] = d.T @ posts[j]
        if j > 0:  # posts[j] is spent; posts[0] is the caller's x
            d = np.matmul(d, net.weights[j], out=posts[j])
    return grads


def per_sample_losses_and_input_grads(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray,
                                      workspace: Workspace = None):
    """Per-sample losses and d(loss_i)/d(x_i); rows are independent."""
    return _per_sample_pass(net, x, y_idx, workspace, input_grads=True)


def _per_sample_pass(net: SmallNetwork, x, y_idx, workspace, input_grads: bool):
    """Per-sample losses, and d(loss_i)/d(x_i) or None, as fresh arrays.

    Batches run in blocks of ``ROWS_PER_PASS`` rows, so the buffers stay
    cache-sized and a :meth:`Workspace.per_sample` workspace serves any.
    """
    x = np.asarray(x, dtype=float)
    y_idx = np.asarray(y_idx)
    n = x.shape[0]
    if workspace is None:
        workspace = Workspace.per_sample(net, n)
    losses, grads = np.empty(n), np.empty(x.shape) if input_grads else None
    for start in range(0, n, ROWS_PER_PASS):
        rows = slice(start, start + ROWS_PER_PASS)
        posts = net.activations(x[rows], workspace)
        losses[rows], d = jsd_loss_and_logit_grad(posts[-1], y_idx[rows])
        if not input_grads:
            continue
        slopes = workspace.rows(posts[0].shape[0])[1]
        for j in range(net.n_layers - 1, -1, -1):
            d = _elu_backward(d, slopes[j])
            # posts[j] is spent; posts[0] is the caller's x
            d = np.matmul(d, net.weights[j], out=posts[j] if j > 0 else grads[rows])
    return losses, grads


def operator_norm(w: np.ndarray) -> float:
    """Largest singular value of ``w``, from LAPACK's SVD."""
    return float(np.linalg.svd(w, compute_uv=False)[0])


def spectral_normalize(net: SmallNetwork) -> None:
    """Project every weight matrix onto the unit operator-norm ball, in place."""
    for j, w in enumerate(net.weights):
        sigma = operator_norm(w)
        if sigma > 1.0:
            net.weights[j] = w / sigma


@dataclass(frozen=True)
class TrainResult:
    network: SmallNetwork
    checkpoint_losses: tuple  # full-data loss every `check_every` steps, ends with final


def train_network(
    net: SmallNetwork,
    x: np.ndarray,
    y_idx: np.ndarray,
    steps: int = 2000,
    check_every: int = 200,
) -> TrainResult:
    """Full-batch gradient descent on the mean JSD loss with per-step spectral normalization.

    With step size ``LEARNING_RATE`` the checkpointed loss is non-increasing.  Raises
    :class:`TrainingDivergenceError` at the first step with non-finite gradients; steps
    skip the loss, as a NaN loss means a NaN p_y, which makes every gradient NaN.
    """
    net = net.copy()
    y_idx = np.asarray(y_idx)
    ws = Workspace(net, x.shape[0])
    positions = true_class_positions(y_idx, net.weights[-1].shape[0])
    checkpoints = [batch_loss(net, x, y_idx, ws)]
    for step in range(steps):
        grads = batch_loss_and_param_grads(net, x, y_idx, ws, positions)
        if not all(np.isfinite(g).all() for g in grads):
            raise TrainingDivergenceError(f"gradients became non-finite at step {step}")
        for j in range(net.n_layers):
            net.weights[j] = net.weights[j] - LEARNING_RATE * grads[j]
        spectral_normalize(net)
        if (step + 1) % check_every == 0:
            checkpoints.append(batch_loss(net, x, y_idx, ws))
    if steps % check_every != 0:
        checkpoints.append(batch_loss(net, x, y_idx, ws))
    return TrainResult(network=net, checkpoint_losses=tuple(checkpoints))


@dataclass(frozen=True)
class LipschitzProfile:
    """Per-layer Lipschitz data: alpha_l bounds the Jacobian norm of the first
    l layers, beta_l the Lipschitz constant of that Jacobian, and l_star the
    gradient Lipschitz constant of the full loss-network composition."""

    alpha: tuple
    beta: tuple
    l_star: float


def lipschitz_profile(net: SmallNetwork) -> LipschitzProfile:
    """Run the alpha/beta recursion over the layer norms and close with the head."""
    l0_head, l1_head = jsd_head_constants()
    alpha, beta = [], []
    a_prev, b_prev = 1.0, 0.0
    for w in net.weights:
        norm = operator_norm(w)
        a = norm * a_prev
        b = norm * b_prev + norm * norm * a_prev * a_prev
        alpha.append(a)
        beta.append(b)
        a_prev, b_prev = a, b
    l_star = l0_head * b_prev + l1_head * a_prev * a_prev
    return LipschitzProfile(alpha=tuple(alpha), beta=tuple(beta), l_star=l_star)


def jsd_head_constants():
    """Lipschitz constants of the softmax-JSD head (binary case).

    The gradient-norm constant is the maximum over p in (0, 1) of
    (1/sqrt(2)) log2((1+p)/p) p (1-p), as a golden-section search to 1e-8
    finds it (the tests recompute it); the constant for the gradient's
    Jacobian is 1/2 (analytic).
    """
    return float.fromhex("0x1.421e4974f1febp-2"), 0.5
