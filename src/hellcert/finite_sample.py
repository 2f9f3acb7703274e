"""High-probability certificates computed from a finite loss sample.

The population quantities entering the closed-form certificates of
:mod:`hellcert.bounds` are replaced by Hoeffding and Maurer-Pontil
concentration bounds, combined through a union bound over the confidence
budget delta; the direction decides its split.  The upper certificate is
the population upper expression at (L_hat, sigma_bar, h): the Maurer-Pontil
standard deviation bound sigma_bar and the Hoeffding headroom h, each at
delta/2, which is the published finite-sample expression rearranged (see
:func:`corollary_upper_bound`).  The lower certificate is a conservative
construction at delta/3 per bound (see :func:`corollary_lower_bound`).
Each direction computes its concentration bounds once and takes both its
validity radius and its value from them; beyond that radius the report
carries the trivial bound, flagged ``vacuous`` (see
:func:`hellcert.bounds.report`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import CertificateReport, c_rho, report, upper_value, validity_radius

__all__ = [
    "EmpiricalSample",
    "ConfidenceBudget",
    "hoeffding_mean_upper",
    "hoeffding_mean_lower",
    "maurer_pontil_std_upper",
    "max_valid_radius_empirical",
    "max_valid_radius_empirical_lower",
    "corollary_upper_bound",
    "corollary_lower_bound",
]


@dataclass(frozen=True)
class EmpiricalSample:
    """Loss sample in [0, ceiling] with its empirical mean and unbiased variance.

    Losses outside the range are rejected outright (boundedness is the only
    assumption the certificates make) with the index of the first offender.
    """

    losses: np.ndarray
    ceiling: float
    n: int = 0
    empirical_mean: float = 0.0
    unbiased_variance: float = 0.0

    def __init__(self, losses, ceiling: float):
        losses = np.asarray(losses, dtype=float)
        if losses.ndim != 1:
            raise ValueError("losses must be a 1-d array")
        if losses.size < 2:
            raise ValueError(f"need at least 2 losses for an unbiased variance, got {losses.size}")
        if not (ceiling > 0 and math.isfinite(ceiling)):
            raise ValueError(f"ceiling must be positive and finite, got {ceiling}")
        bad = ~((losses >= 0.0) & (losses <= ceiling))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"loss at index {i} is {losses[i]!r}, outside [0, {ceiling}]"
            )
        losses = losses.copy()
        losses.setflags(write=False)
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "ceiling", float(ceiling))
        object.__setattr__(self, "n", int(losses.size))
        with np.errstate(over="ignore", invalid="ignore"):
            # Rounding can put the mean of losses at the ceiling just above it.
            object.__setattr__(self, "empirical_mean", min(float(np.mean(losses)), self.ceiling))
            # np.var of a constant sample is not 0 where its mean rounds off the constant.
            variance = float(np.var(losses, ddof=1)) if losses.max() > losses.min() else 0.0
        if not math.isfinite(variance):
            raise ValueError(f"the variance of the losses overflows the float range (ceiling {ceiling})")
        object.__setattr__(self, "unbiased_variance", variance)


@dataclass(frozen=True)
class ConfidenceBudget:
    """Total failure probability delta of a finite-sample certificate.

    The direction splits it: the upper certificate spends delta/2 on the
    mean and delta/2 on the standard deviation, the lower one delta/3 on
    each of the mean from below, the mean from above and the deviation.
    """

    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie strictly inside (0, 1), got {self.delta}")


def _check_delta_part(delta_part: float) -> None:
    if not (0.0 < delta_part <= 1.0):
        raise ValueError(f"delta part must lie in (0, 1], got {delta_part}")


def hoeffding_mean_upper(sample: EmpiricalSample, delta_part: float) -> float:
    """Mean upper bound L_hat + M sqrt(ln(1/delta)/(2n)), failing w.p. <= delta_part."""
    _check_delta_part(delta_part)
    slack = sample.ceiling * math.sqrt(math.log(1.0 / delta_part) / (2.0 * sample.n))
    return sample.empirical_mean + slack


def hoeffding_mean_lower(sample: EmpiricalSample, delta_part: float) -> float:
    """Mean lower bound L_hat - M sqrt(ln(1/delta)/(2n)), clamped to >= 0."""
    _check_delta_part(delta_part)
    slack = sample.ceiling * math.sqrt(math.log(1.0 / delta_part) / (2.0 * sample.n))
    return max(sample.empirical_mean - slack, 0.0)


def maurer_pontil_std_upper(sample: EmpiricalSample, delta_part: float) -> float:
    """Population standard deviation upper bound sqrt(S_n^2) + M sqrt(2 ln(1/delta)/(n-1))."""
    _check_delta_part(delta_part)
    slack = sample.ceiling * math.sqrt(2.0 * math.log(1.0 / delta_part) / (sample.n - 1))
    return math.sqrt(sample.unbiased_variance) + slack


def _upper_inputs(sample: EmpiricalSample, budget: ConfidenceBudget):
    """(sigma_bar, h): the Maurer-Pontil standard deviation bound at delta/2 and
    the high-probability headroom h = M(1 - sqrt(ln(2/delta)/(2n))) - L_hat."""
    slack = math.sqrt(math.log(2.0 / budget.delta) / (2.0 * sample.n))
    headroom = sample.ceiling * (1.0 - slack) - sample.empirical_mean
    return maurer_pontil_std_upper(sample, budget.delta / 2.0), headroom


def _lower_inputs(sample: EmpiricalSample, budget: ConfidenceBudget):
    """(E_lo, E_hi, sigma_bar): the mean from below and from above and the
    standard deviation from above, each at delta/3."""
    d3 = budget.delta / 3.0
    return (hoeffding_mean_lower(sample, d3), hoeffding_mean_upper(sample, d3),
            maurer_pontil_std_upper(sample, d3))


def _radius(margin: float, sigma: float) -> float:
    """Population validity radius at mean margin ``margin`` and spread
    ``sigma``; 0 when the margin is non-positive: nothing can be certified."""
    if margin <= 0.0:
        return 0.0
    ratio = margin / sigma
    return validity_radius(ratio * ratio)


def max_valid_radius_empirical(sample: EmpiricalSample, budget: ConfidenceBudget) -> float:
    """Largest radius at which the finite-sample upper certificate is defined:
    the population radius at headroom h and spread sigma_bar (see
    :func:`_upper_inputs`)."""
    sigma, headroom = _upper_inputs(sample, budget)
    return _radius(headroom, sigma)


def max_valid_radius_empirical_lower(sample: EmpiricalSample, budget: ConfidenceBudget) -> float:
    """Conservative validity radius for the lower certificate (delta/3 budgets)."""
    e_lo, _, std_up = _lower_inputs(sample, budget)
    return _radius(e_lo, std_up)


def corollary_upper_bound(
    sample: EmpiricalSample, rho: float, budget: ConfidenceBudget
) -> CertificateReport:
    """Finite-sample upper certificate, holding with probability >= 1 - delta.

    The published expression

        L_hat + 2 C(rho) sqrt(S^2) + Delta(n, rho)
        + rho^2 (2 - rho^2) [ M - L_hat + U / (L_hat - M (1 - sqrt(ln(2/d)/(2n)))) ]

    with U = S^2 + 2 M sqrt(2 S^2 ln(2/d)/(n-1)) + 2 M^2 ln(2/d)/(n-1) and

        Delta(n, rho) = (2 C(rho)/sqrt(n-1) - rho^2 (2-rho^2)/(2 sqrt(n))) M sqrt(2 ln(2/d))

    is :func:`hellcert.bounds.upper_value` at mean L_hat, standard deviation
    sigma_bar and headroom h (see :func:`_upper_inputs`): U = sigma_bar^2,
    the denominator is -h, and 2 C(rho) sqrt(S^2) + Delta =
    2 C(rho) sigma_bar - rho^2 (2-rho^2) M sqrt(ln(2/d)/(2n)).
    """
    sigma, headroom = _upper_inputs(sample, budget)
    mv = _radius(headroom, sigma)
    raw = upper_value(sample.empirical_mean, sigma * sigma, headroom, rho)
    return report("upper", rho, raw, mv, sample, sample.ceiling, 1.0 - budget.delta)


def corollary_lower_bound(
    sample: EmpiricalSample, rho: float, budget: ConfidenceBudget
) -> CertificateReport:
    """Finite-sample lower certificate, holding with probability >= 1 - delta.

    Conservative construction: the population quantities in the closed-form
    lower bound are replaced by one-sided bounds at delta/3 each (mean from
    below and above, standard deviation from above), and the +V/E correction
    inside the bracket is dropped.  Every substitution moves the bound
    downward, so validity is preserved by the union bound.
    """
    e_lo, e_hi, std_up = _lower_inputs(sample, budget)
    mv = _radius(e_lo, std_up)
    raw = e_lo - 2.0 * c_rho(rho) * std_up - rho * rho * (2.0 - rho * rho) * e_hi
    return report("lower", rho, raw, mv, sample, sample.ceiling, 1.0 - budget.delta)
