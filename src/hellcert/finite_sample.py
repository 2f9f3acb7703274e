"""High-probability certificates computed from a finite loss sample.

The population mean and standard deviation entering the closed-form
certificates are replaced by Hoeffding and Maurer-Pontil concentration
bounds, combined through a union bound over the confidence budget delta.
The upper certificate implements the published finite-sample expression
verbatim; the lower certificate is a conservative three-way-split
construction (see :func:`corollary_lower_bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import CertificateReport, RadiusValidityError, c_rho, check_radius, validity_radius

__all__ = [
    "EmpiricalSample",
    "ConfidenceBudget",
    "DegenerateSampleError",
    "hoeffding_mean_upper",
    "hoeffding_mean_lower",
    "maurer_pontil_std_upper",
    "max_valid_radius_empirical",
    "max_valid_radius_empirical_lower",
    "corollary_upper_bound",
    "corollary_lower_bound",
]


class DegenerateSampleError(ValueError):
    """Sample statistics make the requested certificate undefined."""


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
        object.__setattr__(self, "empirical_mean", float(np.mean(losses)))
        object.__setattr__(self, "unbiased_variance", float(np.var(losses, ddof=1)))


@dataclass(frozen=True)
class ConfidenceBudget:
    """Total failure probability delta and how it is split across concentration bounds.

    ``two_way`` backs the upper certificate (mean + variance, ln(2/delta) slack);
    ``three_way`` backs the lower certificate (two-sided mean + variance at
    delta/3 each).
    """

    delta: float
    split: str = "two_way"

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie strictly inside (0, 1), got {self.delta}")
        if self.split not in ("two_way", "three_way"):
            raise ValueError(f"unknown split {self.split!r}")


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


def max_valid_radius_empirical(sample: EmpiricalSample, budget: ConfidenceBudget) -> float:
    """Largest radius at which the finite-sample upper certificate is defined.

    Uses ln(2/delta) slack uniformly in both numerator and denominator of the
    validity ratio.  Returns 0 when the high-probability headroom
    M(1 - sqrt(ln(2/delta)/(2n))) - L_hat is non-positive: nothing can be
    certified from such a sample.
    """
    m, n = sample.ceiling, sample.n
    ln2d = math.log(2.0 / budget.delta)
    headroom = m * (1.0 - math.sqrt(ln2d / (2.0 * n))) - sample.empirical_mean
    if headroom <= 0.0:
        return 0.0
    denom = math.sqrt(sample.unbiased_variance) + m * math.sqrt(2.0 * ln2d / (n - 1))
    ratio = headroom / denom
    return validity_radius(ratio * ratio)


def max_valid_radius_empirical_lower(sample: EmpiricalSample, budget: ConfidenceBudget) -> float:
    """Conservative validity radius for the lower certificate (delta/3 budgets)."""
    d3 = budget.delta / 3.0
    e_lo = hoeffding_mean_lower(sample, d3)
    if e_lo <= 0.0:
        return 0.0
    std_up = maurer_pontil_std_upper(sample, d3)
    ratio = e_lo / std_up
    return validity_radius(ratio * ratio)


def corollary_upper_bound(
    sample: EmpiricalSample, rho: float, budget: ConfidenceBudget
) -> CertificateReport:
    """Finite-sample upper certificate, holding with probability >= 1 - delta.

    Implements, verbatim,

        L_hat + 2 C(rho) sqrt(S^2) + Delta(n, rho)
        + rho^2 (2 - rho^2) [ M - L_hat + U / (L_hat - M (1 - sqrt(ln(2/d)/(2n)))) ]

    with U = S^2 + 2 M sqrt(2 S^2 ln(2/d)/(n-1)) + 2 M^2 ln(2/d)/(n-1)
    (the squared Maurer-Pontil bound) and

        Delta(n, rho) = (2 C(rho)/sqrt(n-1) - rho^2 (2-rho^2)/(2 sqrt(n))) M sqrt(2 ln(2/d)).

    At rho = 0 every slack term carries a C(rho) or rho^2 factor, so the
    certificate equals L_hat exactly.
    """
    if budget.split != "two_way":
        raise ValueError("upper certificate requires a two_way budget split")
    check_radius(rho)
    mv = max_valid_radius_empirical(sample, budget)
    if rho > mv:
        raise RadiusValidityError(rho, mv)
    m, n = sample.ceiling, sample.n
    lhat, s2 = sample.empirical_mean, sample.unbiased_variance
    if rho == 0.0:
        raw = lhat
    else:
        ln2d = math.log(2.0 / budget.delta)
        cr = c_rho(rho)
        shrink = rho * rho * (2.0 - rho * rho)
        delta_term = (
            (2.0 * cr / math.sqrt(n - 1) - shrink / (2.0 * math.sqrt(n)))
            * m
            * math.sqrt(2.0 * ln2d)
        )
        denom = lhat - m * (1.0 - math.sqrt(ln2d / (2.0 * n)))
        if denom == 0.0:
            raise DegenerateSampleError(
                "empirical mean sits exactly at the Hoeffding threshold; "
                "the bracket term is undefined"
            )
        numer = (
            s2
            + 2.0 * m * math.sqrt(2.0 * s2 * ln2d / (n - 1))
            + 2.0 * m * m * ln2d / (n - 1)
        )
        raw = (
            lhat
            + 2.0 * cr * math.sqrt(s2)
            + delta_term
            + shrink * (m - lhat + numer / denom)
        )
    return CertificateReport(
        direction="upper",
        radius=rho,
        bound=min(raw, m),
        raw_bound=raw,
        max_valid_radius=mv,
        inputs=sample,
        confidence=1.0 - budget.delta,
    )


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
    if budget.split != "three_way":
        raise ValueError("lower certificate requires a three_way budget split")
    check_radius(rho)
    mv = max_valid_radius_empirical_lower(sample, budget)
    if rho > mv:
        raise RadiusValidityError(rho, mv)
    d3 = budget.delta / 3.0
    e_lo = hoeffding_mean_lower(sample, d3)
    e_hi = hoeffding_mean_upper(sample, d3)
    std_up = maurer_pontil_std_upper(sample, d3)
    shrink = rho * rho * (2.0 - rho * rho)
    raw = e_lo - 2.0 * c_rho(rho) * std_up - shrink * e_hi
    return CertificateReport(
        direction="lower",
        radius=rho,
        bound=max(raw, 0.0),
        raw_bound=raw,
        max_valid_radius=mv,
        inputs=sample,
        confidence=1.0 - budget.delta,
    )
