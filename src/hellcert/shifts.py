"""Hellinger radii for specific shift models on finite supports.

Covers the three shift models the certificates get instantiated with:
label shift (only class marginals move), mixtures with a disjoint-support
component, and simultaneous per-class covariate shifts feeding the AUC
certificate through a composite radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import check_radius

__all__ = [
    "DiscreteDistribution",
    "discrete_hellinger",
    "mixture_hellinger_disjoint",
    "auc_composite_radius",
]


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector on a finite support, normalized on construction.

    Valid masses are told apart by one ``min`` and one ``sum``; the checks
    that name a failure (and the vector, as ``name``) run only after those two
    reject it.  Finite masses whose sum overflows are divided by the largest one first.
    """

    probs: np.ndarray

    def __init__(self, probs, name: str = "probs"):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError(f"{name} must be a non-empty 1-d vector")
        total = math.nan
        if np.minimum.reduce(probs) >= 0.0:  # False on NaN as well
            with np.errstate(over="ignore"):
                total = float(np.add.reduce(probs))
        if not 0.0 < total < math.inf:
            if not np.isfinite(probs).all():
                raise ValueError(f"{name} must be finite")
            if (probs < 0.0).any():
                raise ValueError(f"{name} must be non-negative")
            if total <= 0.0:
                raise ValueError(f"{name} must have positive total mass")
            probs = probs / probs.max()
            total = float(probs.sum())
        probs = probs / total
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _normalized(cls, masses: np.ndarray) -> "DiscreteDistribution":
        """``DiscreteDistribution(masses)`` for masses known finite and
        non-negative, with a finite positive total: the same division, no checks."""
        probs = masses / np.add.reduce(masses)
        probs.setflags(write=False)
        dist = object.__new__(cls)
        object.__setattr__(dist, "probs", probs)
        return dist

    def __len__(self) -> int:
        return self.probs.size


def _padded(p: DiscreteDistribution, q: DiscreteDistribution):
    """Zero-pad the shorter vector so both live on a common support."""
    k = max(len(p), len(q))
    pv = np.zeros(k)
    qv = np.zeros(k)
    pv[: len(p)] = p.probs
    qv[: len(q)] = q.probs
    return pv, qv


def discrete_hellinger(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Hellinger distance ||sqrt(p) - sqrt(q)||_2 / sqrt(2), capped at 1.

    Under label shift, where class-conditional covariate distributions are
    fixed and only the label marginals move, the joint distance collapses to
    this distance between the label marginals.
    """
    pv, qv = _padded(p, q)
    return float(root_difference_hellinger(np.sqrt(pv) - np.sqrt(qv)))


def root_difference_hellinger(d: np.ndarray):
    """Hellinger distance from d = sqrt(p) - sqrt(q) on a common support, capped at 1.

    Row-wise on a block of differences.  ``np.add.reduce`` over the last axis
    sums each row as it sums the vector on its own, without BLAS, so a row
    gives the same bits as the vector and as on any other CPU.
    """
    return np.minimum(np.sqrt(np.add.reduce(d * d, axis=-1)) / math.sqrt(2.0), 1.0)


def mixture_hellinger_disjoint(gamma: float) -> float:
    """Distance from P to the mixture gamma*P + (1-gamma)*Q when supp(P), supp(Q) are disjoint.

    Closed form sqrt(1 - sqrt(gamma)): 1 at gamma = 0 (pure disjoint Q) and
    0 at gamma = 1 (the mixture is P itself).
    """
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"mixture weight must lie in [0, 1], got {gamma}")
    return math.sqrt(1.0 - math.sqrt(gamma))


def auc_composite_radius(rho: float) -> float:
    """Radius for the positive/negative pair distribution when each class-conditional shifts by <= rho.

    The pair distribution is a product of the two conditionals, so its
    squared distance is bounded by rho^2 (2 - rho^2); certify AUC at
    sqrt(rho^2 (2 - rho^2)).
    """
    check_radius(rho)
    r2 = rho * rho
    return math.sqrt(r2 * (2.0 - r2))
