"""Small dense ELU network with spectrally normalized weights.

Bias-free feedforward net x -> elu(W_L ... elu(W_1 x)) feeding a softmax
head with the bounded Jensen-Shannon loss.  Forward, parameter gradients and
input gradients are written out by hand (the loss-to-logits gradient has a
closed form), which keeps the whole benchmark dependency-free and makes the
finite-difference checks direct.

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
from functools import lru_cache

import numpy as np

from .losses import jsd_loss_vector
from .rng import stream

__all__ = [
    "SmallNetwork",
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
    "golden_section_max",
]

_LN2 = math.log(2.0)


class TrainingDivergenceError(RuntimeError):
    """Training loss became non-finite."""


def _elu(z: np.ndarray) -> np.ndarray:
    return np.where(z > 0.0, z, np.expm1(np.minimum(z, 0.0)))


@dataclass
class SmallNetwork:
    """Weight matrices (out, in) per layer; ELU after every layer."""

    weights: list
    _power_vectors: list = None  # warm starts for the per-layer norm estimates

    @classmethod
    def initialize(cls, hidden=(4, 2), n_inputs: int = 2, n_classes: int = 2, seed: int = 0):
        widths = (n_inputs, *hidden, n_classes)
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits for a batch of row vectors."""
        a = np.asarray(x, dtype=float)
        for w in self.weights:
            a = _elu(a @ w.T)
        return a

    def activations(self, x: np.ndarray):
        """Input and post-activations per layer; backprop takes ELU' as min(a, 0) + 1."""
        a = np.asarray(x, dtype=float)
        posts = [a]
        for w in self.weights:
            a = _elu(a @ w.T)
            posts.append(a)
        return posts


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _loss_and_logit_grad(logits: np.ndarray, y_idx: np.ndarray):
    """Per-sample JSD losses and d(loss)/d(logits), both closed-form."""
    p = _softmax_rows(logits)
    n = logits.shape[0]
    py = p[np.arange(n), y_idx]
    losses = jsd_loss_vector(py)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(py > 0.0, 0.5 * np.log(py / (1.0 + py)) / _LN2 * py, 0.0)
    grad = -coef[:, None] * p
    grad[np.arange(n), y_idx] += coef
    return losses, grad


def batch_loss(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray) -> float:
    losses, _ = _loss_and_logit_grad(net.forward(x), np.asarray(y_idx))
    return float(losses.mean())


def per_sample_losses(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray) -> np.ndarray:
    losses, _ = _loss_and_logit_grad(net.forward(x), np.asarray(y_idx))
    return losses


def batch_loss_and_param_grads(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray):
    """Mean loss over the batch and gradients for every weight matrix."""
    y_idx = np.asarray(y_idx)
    posts = net.activations(x)
    losses, d = _loss_and_logit_grad(posts[-1], y_idx)
    d = d / x.shape[0]
    grads = [None] * net.n_layers
    for j in range(net.n_layers - 1, -1, -1):
        d = d * (np.minimum(posts[j + 1], 0.0) + 1.0)
        grads[j] = d.T @ posts[j]
        if j > 0:
            d = d @ net.weights[j]
    return float(losses.mean()), grads


def per_sample_losses_and_input_grads(net: SmallNetwork, x: np.ndarray, y_idx: np.ndarray):
    """Per-sample losses and d(loss_i)/d(x_i); rows are independent."""
    y_idx = np.asarray(y_idx)
    posts = net.activations(x)
    losses, d = _loss_and_logit_grad(posts[-1], y_idx)
    for j in range(net.n_layers - 1, -1, -1):
        d = d * (np.minimum(posts[j + 1], 0.0) + 1.0)
        d = d @ net.weights[j]
    return losses, d


def operator_norm(w: np.ndarray, v0=None, max_iters: int = 50, tol: float = 1e-8):
    """Largest singular value by power iteration on W^T W.

    ``v0`` warm-starts the right singular vector (pays off when the same
    matrix is renormalized every training step).  Returns (sigma, v).
    """
    w = np.asarray(w, dtype=float)
    n_in = w.shape[1]
    if v0 is None:
        # Deterministic, non-degenerate start.
        v = np.ones(n_in) + 1e-3 * np.arange(n_in)
    else:
        v = v0
    v = v / np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iters):
        u = w @ v
        sigma_new = float(np.linalg.norm(u))
        if sigma_new == 0.0:
            return 0.0, v
        v = w.T @ (u / sigma_new)
        v_norm = float(np.linalg.norm(v))
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
    learning_rate: float = 0.5,
    seed: int = 0,
    batch_size: int = None,
    check_every: int = 200,
) -> TrainResult:
    """Gradient descent on the mean JSD loss with per-step spectral normalization.

    Full-batch by default (``batch_size=None``); with the defaults the
    checkpointed full-data loss is non-increasing.  Raises
    :class:`TrainingDivergenceError` if the loss goes non-finite.
    """
    net = net.copy()
    y_idx = np.asarray(y_idx)
    gen = stream(seed, 1)
    checkpoints = [batch_loss(net, x, y_idx)]
    for step in range(steps):
        if batch_size is None or batch_size >= x.shape[0]:
            xb, yb = x, y_idx
        else:
            pick = gen.integers(0, x.shape[0], size=batch_size)
            xb, yb = x[pick], y_idx[pick]
        loss, grads = batch_loss_and_param_grads(net, xb, yb)
        if not math.isfinite(loss):
            raise TrainingDivergenceError(f"loss became {loss} at step {step}")
        for j in range(net.n_layers):
            net.weights[j] = net.weights[j] - learning_rate * grads[j]
        spectral_normalize(net)
        if (step + 1) % check_every == 0:
            checkpoints.append(batch_loss(net, x, y_idx))
    if steps % check_every != 0:
        checkpoints.append(batch_loss(net, x, y_idx))
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


@lru_cache(maxsize=1)
def jsd_head_constants():
    """Lipschitz constants of the softmax-JSD head (binary case).

    The gradient-norm constant is the maximum over p in (0, 1) of
    (1/sqrt(2)) log2((1+p)/p) p (1-p), found by golden-section search; the
    constant for the gradient's Jacobian is 1/2 (analytic).
    """

    def objective(p):
        return math.log2((1.0 + p) / p) * p * (1.0 - p) / math.sqrt(2.0)

    _, l0 = golden_section_max(objective, 1e-12, 1.0 - 1e-12, tol=1e-8)
    return l0, 0.5
