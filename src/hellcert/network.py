"""Small dense ELU network with spectrally normalized weights.

Bias-free feedforward net x -> elu(W_L ... elu(W_1 x)) from 2-d inputs to
a binary softmax head with the bounded Jensen-Shannon loss, trained by
full-batch gradient descent at step ``LEARNING_RATE``.  Forward, parameter gradients and
input gradients are written out by hand (the loss-to-logits gradient has a
closed form), which keeps the whole benchmark dependency-free and makes the
finite-difference checks direct.

Passes are allocation-free: a :class:`Workspace` holds one post-activation
buffer per layer and one scratch buffer of n x (widest layer), and the
forward and backward passes write into it with ``out=``.  ELU is computed in
place as max(z, 0) + expm1(min(z, 0)), with no branch on the sign of z; the
backward pass overwrites each spent post-activation a with ELU' =
min(a, 0) + 1 in place, then with the error at that layer's pre-activation.
The loss head is :func:`losses.jsd_loss_and_logit_grad`, whose softmax folds
its row max and row sum over the class columns, which beats an axis-1
reduction on rows this short.

Spectral normalization keeps every operator norm at most 1, which is what
the baseline certificates need: the gradient Lipschitz constant of the
loss-network composition follows from the per-layer recursion

    alpha_{l+1} = ||W_{l+1}|| alpha_l,
    beta_{l+1}  = ||W_{l+1}|| beta_l + ||W_{l+1}||^2 alpha_l^2

(unit ELU constants), closed by the softmax-JSD head constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import jsd_loss_and_logit_grad, true_class_positions
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


class TrainingDivergenceError(RuntimeError):
    """Training loss became non-finite."""


def _elu_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """ELU of z written over z; ``tmp`` is scratch of z's shape.

    max(z, 0) + expm1(min(z, 0)) adds an exact 0 to one of the two terms, so
    it equals the branching form bitwise, up to the sign of an exact zero.
    """
    np.minimum(z, 0.0, out=tmp)
    np.expm1(tmp, out=tmp)
    np.maximum(z, 0.0, out=z)
    z += tmp
    return z


def _elu_backward(d: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d * ELU'(z) written over the spent post-activation a = elu(z).

    ELU' is min(a, 0) + 1: 1 where z > 0 and expm1(z) + 1 elsewhere.
    """
    np.minimum(a, 0.0, out=a)
    a += 1.0
    return np.multiply(d, a, out=a)


@dataclass
class SmallNetwork:
    """Weight matrices (out, in) per layer; ELU after every layer.

    Inputs are 2-d and the head is binary, the case
    :func:`jsd_head_constants` holds for.
    """

    weights: list
    _power_vectors: list = None  # warm starts for the per-layer norm estimates

    @classmethod
    def initialize(cls, hidden=(4, 2), seed: int = 0):
        widths = (2, *hidden, 2)
        gen = stream(seed)
        weights = [
            gen.standard_normal((widths[j + 1], widths[j])) / math.sqrt(widths[j])
            for j in range(len(widths) - 1)
        ]
        net = cls(weights=weights, _power_vectors=[None] * len(weights))
        spectral_normalize(net, max_iters=200)
        return net

    def copy(self) -> "SmallNetwork":
        return SmallNetwork(
            weights=[w.copy() for w in self.weights],
            _power_vectors=[None if v is None else v.copy() for v in self._power_vectors],
        )

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
        use; backprop takes ELU' as min(a, 0) + 1 from them.
        """
        a = np.asarray(x, dtype=float)
        ws = _workspace(self, a, workspace)
        posts = [a]
        for w, out in zip(self.weights, ws.posts(a.shape[0])):
            np.matmul(posts[-1], w.T, out=out)
            posts.append(_elu_inplace(out, ws.scratch(*out.shape)))
        return posts


class Workspace:
    """Buffers for passes of one network over batches of up to ``n`` rows.

    One post-activation buffer per layer and one scratch buffer of
    n x (widest layer); a batch of m <= n rows uses their leading m rows,
    which stay C-contiguous.  Passes overwrite them, so a workspace serves
    one pass at a time.
    """

    def __init__(self, net: SmallNetwork, n: int):
        widths = [w.shape[0] for w in net.weights]
        self.n = n
        self._posts = [np.empty((n, width)) for width in widths]
        self._scratch = np.empty(n * max(widths))

    def posts(self, m: int):
        if m > self.n:
            raise ValueError(f"batch of {m} rows exceeds the workspace's {self.n}")
        return [post[:m] for post in self._posts]

    def scratch(self, m: int, width: int) -> np.ndarray:
        return self._scratch[: m * width].reshape(m, width)


def _workspace(net: SmallNetwork, x, workspace) -> Workspace:
    return Workspace(net, len(x)) if workspace is None else workspace


def per_sample_losses(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray,
                      workspace: Workspace = None) -> np.ndarray:
    losses, _ = jsd_loss_and_logit_grad(net.forward(x, workspace), np.asarray(y_idx))
    return losses


def batch_loss(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray,
               workspace: Workspace = None) -> float:
    return float(per_sample_losses(net, x, y_idx, workspace).mean())


def batch_loss_and_param_grads(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray,
                               workspace: Workspace = None, positions=None):
    """Mean loss over the batch and gradients for every weight matrix.

    ``positions`` is ``losses.true_class_positions`` of ``y_idx``, for
    callers that pass one label vector step after step.
    """
    y_idx = np.asarray(y_idx)
    ws = _workspace(net, x, workspace)
    posts = net.activations(x, ws)
    n = posts[0].shape[0]
    losses, d = jsd_loss_and_logit_grad(posts[-1], y_idx, positions)
    d /= n
    grads = [None] * net.n_layers
    for j in range(net.n_layers - 1, -1, -1):
        d = _elu_backward(d, posts[j + 1])
        grads[j] = d.T @ posts[j]
        if j > 0:
            d = np.matmul(d, net.weights[j], out=ws.scratch(n, posts[j].shape[1]))
    # The mean's own sum and division, without np.mean's per-call overhead.
    return float(np.add.reduce(losses)) / n, grads


def per_sample_losses_and_input_grads(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray,
                                      workspace: Workspace = None):
    """Per-sample losses and d(loss_i)/d(x_i); rows are independent.

    Both are fresh arrays the caller owns; only the passes use ``workspace``.
    """
    y_idx = np.asarray(y_idx)
    ws = _workspace(net, x, workspace)
    posts = net.activations(x, ws)
    n = posts[0].shape[0]
    losses, d = jsd_loss_and_logit_grad(posts[-1], y_idx)
    for j in range(net.n_layers - 1, -1, -1):
        d = _elu_backward(d, posts[j + 1])
        out = ws.scratch(n, posts[j].shape[1]) if j > 0 else None
        d = np.matmul(d, net.weights[j], out=out)
    return losses, d


def operator_norm(w: np.ndarray, v0=None, max_iters: int = 50, tol: float = 1e-8):
    """Largest singular value by power iteration on W^T W.

    ``v0`` warm-starts the right singular vector (pays off when the same
    matrix is renormalized every training step).  Returns (sigma, v).
    """
    n_in = w.shape[1]
    if v0 is None:
        # Deterministic, non-degenerate start.
        v = np.ones(n_in) + 1e-3 * np.arange(n_in)
    else:
        v = v0
    # sqrt(v . v) is np.linalg.norm's own formula for real vectors, and
    # ndarray.dot the same BLAS product as @, each without its per-call
    # overhead.
    v = v / math.sqrt(v.dot(v))
    wt = w.T
    sigma = 0.0
    for _ in range(max_iters):
        u = w.dot(v)
        sigma_new = math.sqrt(u.dot(u))
        if sigma_new == 0.0:
            return 0.0, v
        v = wt.dot(u / sigma_new)
        v_norm = math.sqrt(v.dot(v))
        if v_norm == 0.0:
            return 0.0, v
        v = v / v_norm
        if abs(sigma_new - sigma) <= tol * max(1.0, sigma_new):
            sigma = sigma_new
            break
        sigma = sigma_new
    return sigma, v


def spectral_normalize(net: SmallNetwork, max_iters: int = 50, tol: float = 1e-8) -> None:
    """Project every weight matrix onto the unit operator-norm ball, in place."""
    if net._power_vectors is None:
        net._power_vectors = [None] * net.n_layers
    for j, w in enumerate(net.weights):
        sigma, v = operator_norm(w, v0=net._power_vectors[j], max_iters=max_iters, tol=tol)
        net._power_vectors[j] = v
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
    :class:`TrainingDivergenceError` if the loss goes non-finite.
    """
    net = net.copy()
    y_idx = np.asarray(y_idx)
    ws = Workspace(net, x.shape[0])
    positions = true_class_positions(y_idx, net.weights[-1].shape[0])
    checkpoints = [batch_loss(net, x, y_idx, ws)]
    for step in range(steps):
        loss, grads = batch_loss_and_param_grads(net, x, y_idx, ws, positions)
        if not math.isfinite(loss):
            raise TrainingDivergenceError(f"loss became {loss} at step {step}")
        for j in range(net.n_layers):
            net.weights[j] = net.weights[j] - LEARNING_RATE * grads[j]
        spectral_normalize(net)
        if (step + 1) % check_every == 0:
            checkpoints.append(batch_loss(net, x, y_idx, ws))
    if steps % check_every != 0:
        checkpoints.append(batch_loss(net, x, y_idx, ws))
    if steps > 0:
        # Tight final projection so downstream norm checks see <= 1 + 1e-6.
        spectral_normalize(net, max_iters=500, tol=1e-12)
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
        norm, _ = operator_norm(w, max_iters=200, tol=1e-12)
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
