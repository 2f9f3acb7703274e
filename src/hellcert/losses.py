"""Loss and score functions the certificates are instantiated with.

The 0-1 loss, the bounded Jensen-Shannon divergence loss between a softmax
prediction and a one-hot target (base-2 logs, so values live in [0, 1]),
and the AUC ranking statistic with its i.i.d. pair-sample construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .finite_sample import EmpiricalSample
from .rng import stream

__all__ = [
    "PredictionSample",
    "ScoredSample",
    "zero_one_stats",
    "jsd_loss",
    "jsd_gradient",
    "auc_estimate",
    "auc_pair_sample",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class PredictionSample:
    """Paired (predicted_label, true_label) records."""

    predictions: np.ndarray
    labels: np.ndarray

    def __init__(self, predictions, labels):
        predictions = np.asarray(predictions)
        labels = np.asarray(labels)
        if predictions.size == 0:
            raise ValueError("prediction sample must be non-empty")
        if predictions.shape != labels.shape or predictions.ndim != 1:
            raise ValueError("predictions and labels must be equal-length 1-d arrays")
        predictions = predictions.copy()
        labels = labels.copy()
        predictions.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "predictions", predictions)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.predictions.size


@dataclass(frozen=True)
class ScoredSample:
    """Scored binary records with labels in {-1, +1}; both classes must be present."""

    scores: np.ndarray
    labels: np.ndarray

    def __init__(self, scores, labels):
        scores = np.asarray(scores, dtype=float)
        labels = np.asarray(labels)
        if scores.shape != labels.shape or scores.ndim != 1:
            raise ValueError("scores and labels must be equal-length 1-d arrays")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        if not (np.any(labels == 1) and np.any(labels == -1)):
            raise ValueError("degenerate sample: both classes must be present")
        scores = scores.copy()
        labels = labels.astype(int)
        scores.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    @property
    def positives(self) -> np.ndarray:
        return self.scores[self.labels == 1]

    @property
    def negatives(self) -> np.ndarray:
        return self.scores[self.labels == -1]


def zero_one_stats(sample: PredictionSample) -> EmpiricalSample:
    """0-1 losses 1{pred != true} as an empirical sample with ceiling 1."""
    losses = (sample.predictions != sample.labels).astype(float)
    return EmpiricalSample(losses, ceiling=1.0)


def jsd_loss_vector(p_true: np.ndarray) -> np.ndarray:
    """JSD loss (base 2) between predictions and their one-hot targets.

    Only the predicted probability p of the true class matters:

        1 + (p log2(p) - (1 + p) log2(1 + p)) / 2,

    which decreases from 1 at p = 0 to 0 at p = 1; x log x is taken as 0 at 0.
    With q = 1 - p, which is exact for p >= 1/2, it is evaluated as

        q/2 + (p ln(p) - (1 + p) log1p(-q/2)) / (2 ln 2),

    whose second term is O(q^2), so the loss keeps its relative precision
    near p = 1, where the form above cancels O(1) terms.  ln(p) is
    log1p(-q) for p >= 1/2 and log(p) below; each log's argument is kept
    away from 0, so no case warns.
    """
    p = np.asarray(p_true, dtype=float)
    q = 1.0 - p
    ln_p = np.where(p >= 0.5, np.log1p(-np.minimum(q, 0.5)), np.log(np.maximum(p, 1e-300)))
    return 0.5 * q + (p * ln_p - (1.0 + p) * np.log1p(-0.5 * q)) / (2.0 * _LN2)


def _by_column(op, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """op(a, v[:, None]) as one call per column of a, into a fresh C-contiguous array.

    Elementwise the same operation, so bitwise the same result; a broadcast
    over rows of a few columns runs one short inner loop per row instead.
    """
    out = np.empty(a.shape)
    for c in range(a.shape[1]):
        op(a[:, c], v, out=out[:, c])
    return out


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row softmax; max and sum fold over the (few) class columns."""
    e = _by_column(np.subtract, logits, functools.reduce(np.maximum, logits.T))
    np.exp(e, out=e)
    return _by_column(np.divide, e, functools.reduce(np.add, e.T))


def true_class_positions(y_idx: np.ndarray, n_classes: int) -> np.ndarray:
    """Row-major flat positions of the true classes in an (n, n_classes) array."""
    return np.arange(len(y_idx)) * n_classes + y_idx


def jsd_logit_grad(logits: np.ndarray, y_idx: np.ndarray, positions=None):
    """Per-row true-class probabilities p_y and JSD gradients with respect to the logits.

    With p = softmax(logits) and y the true class, the gradient has the
    closed form (1/2) log2(p_y / (1 + p_y)) p_y (e_y - p).  The prefactor
    vanishes both as p_y -> 1 (e_y - p -> 0) and as p_y -> 0
    (p_y log p_y -> 0).  ``positions`` is :func:`true_class_positions` of
    ``y_idx``, for callers that reuse one label vector.
    """
    p = softmax_rows(logits)
    if positions is None:
        positions = true_class_positions(y_idx, logits.shape[1])
    # p and grad are fresh C-contiguous arrays, so their flat views index them.
    py = p.ravel()[positions]
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(py > 0.0, 0.5 * np.log(py / (1.0 + py)) / _LN2 * py, 0.0)
    grad = _by_column(np.multiply, p, -coef)
    grad.ravel()[positions] += coef
    return py, grad


def jsd_loss_and_logit_grad(logits: np.ndarray, y_idx: np.ndarray, positions=None):
    """Per-row JSD losses and their gradients with respect to the logits."""
    py, grad = jsd_logit_grad(logits, y_idx, positions)
    return jsd_loss_vector(py), grad


def jsd_loss(p_y: float) -> float:
    """:func:`jsd_loss_vector` of one true-class probability, checked to lie in [0, 1]."""
    if not (0.0 <= p_y <= 1.0):
        raise ValueError(f"class probability must lie in [0, 1], got {p_y}")
    return float(jsd_loss_vector(p_y))


def jsd_gradient(logits, true_class: int) -> np.ndarray:
    """Gradient of the JSD loss with respect to one finite logit vector."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 1:
        raise ValueError("logits must be a 1-d vector")
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    _, grad = jsd_logit_grad(logits[None, :], np.array([true_class]))
    return grad[0]


def auc_estimate(sample: ScoredSample) -> float:
    """All-pairs AUC estimate: fraction of (positive, negative) pairs with s_+ >= s_-.

    Ties count as successes (the ">=" convention), not as 1/2.  Sort and
    bisection count the pairs in O(n log n) time and linear memory.
    """
    pos = sample.positives
    neg = sample.negatives
    wins = np.searchsorted(np.sort(neg), pos, side="right").sum()
    return float(wins / (pos.size * neg.size))


def auc_pair_sample(sample: ScoredSample, seed: int) -> EmpiricalSample:
    """Disjoint random positive/negative pairs with per-pair value 1{s_+ >= s_-}.

    Each record is used at most once, so the min(n_+, n_-) pair indicators
    are i.i.d. and the finite-sample concentration machinery applies to them
    (unlike the all-pairs estimate, whose terms share records).  Pairing is
    deterministic given the seed.
    """
    pos = sample.positives
    neg = sample.negatives
    m = min(pos.size, neg.size)
    gen = stream(seed)
    pos_pick = pos[gen.permutation(pos.size)[:m]]
    neg_pick = neg[gen.permutation(neg.size)[:m]]
    values = (pos_pick >= neg_pick).astype(float)
    return EmpiricalSample(values, ceiling=1.0)
