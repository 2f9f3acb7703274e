"""Closed-form certificates for the worst-case expected loss over a Hellinger ball.

Given only the mean E, variance V and a uniform ceiling M of a bounded loss
under a reference distribution P, positive semidefiniteness of the Gram
matrix of square-root densities yields closed-form bounds on

    sup / inf of E_Q[loss]  over all Q with Hellinger distance H(P, Q) <= rho.

Both directions share the coefficient C(rho) = sqrt(rho^2 (1-rho^2)^2 (2-rho^2))
and are valid only up to a maximum radius determined by (E, V, M); beyond it
the sign condition behind the derivation fails, and the closed form's
extremal two-point law reaches the ceiling M (upper) or 0 (lower), so the
trivial bound is the exact worst case there.  Every certificate, here and in
:mod:`hellcert.finite_sample`, is valued by :func:`upper_value` (a lower
bound too, for the negated loss, except the finite-sample one) and reported
by :func:`report`, the one place that compares a radius with its validity
radius: beyond it the report carries the trivial bound, flagged ``vacuous``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# Public names; the certificate core (upper_value, report) and the
# radius helpers are shared with the sibling modules only.
__all__ = [
    "LossStatistics",
    "CertificateReport",
    "RadiusValidityError",
    "c_rho",
    "max_valid_radius_upper",
    "max_valid_radius_lower",
    "upper_bound",
    "lower_bound",
    "classification_error_upper",
]

# Slack for the Bhatia-Davis admissibility check, covering float rounding in
# variances computed from data.
_BD_SLACK = 1e-12


class RadiusValidityError(ValueError):
    """A radius beyond a certificate's maximum valid radius.

    Kept importable for callers that catch it; no certificate raises it,
    since beyond the radius each reports the trivial bound, flagged
    ``vacuous`` (see :func:`report`).
    """


@dataclass(frozen=True)
class LossStatistics:
    """Population triple (mean, variance, ceiling) of a loss in [0, ceiling].

    Rejects inputs violating the Bhatia-Davis inequality
    variance <= mean * (ceiling - mean), which every distribution supported
    on [0, ceiling] satisfies.  Its slack for rounding admits a positive
    variance at mean = ceiling (or at mean = 0); the upper (or lower)
    certificate is then valid only at radius 0, so beyond it the band holds
    the trivial sup <= ceiling (or inf >= 0).
    """

    mean: float
    variance: float
    ceiling: float

    def __post_init__(self):
        if not (self.ceiling > 0 and math.isfinite(self.ceiling)):
            raise ValueError(f"ceiling must be positive and finite, got {self.ceiling}")
        if not (0.0 <= self.mean <= self.ceiling):
            raise ValueError(f"mean {self.mean} outside [0, {self.ceiling}]")
        bd_cap = self.mean * (self.ceiling - self.mean)
        if not (0.0 <= self.variance <= bd_cap + _BD_SLACK * self.ceiling * self.ceiling):
            raise ValueError(
                f"variance {self.variance} violates the Bhatia-Davis bound "
                f"{bd_cap} for mean {self.mean} on [0, {self.ceiling}]"
            )


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate evaluation.

    Inside ``max_valid_radius``, ``bound`` is clamped into the trivially
    attainable loss range and the pre-clamp value is kept in ``raw_bound``
    for diagnostics.  Beyond it ``vacuous`` is set, ``bound`` is the trivial
    one, the ceiling (upper) or 0 (lower), and ``raw_bound`` is None.
    ``inputs`` holds whatever statistics object produced the bound.
    """

    direction: str  # "upper" | "lower"
    radius: float
    bound: float
    raw_bound: Optional[float]
    max_valid_radius: float
    inputs: object
    confidence: Optional[float] = None
    vacuous: bool = False

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise ValueError(f"direction must be 'upper' or 'lower', got {self.direction!r}")
        if self.vacuous != (self.radius > self.max_valid_radius):
            raise ValueError("vacuous must say whether the radius exceeds the validity radius")


def check_radius(rho: float) -> None:
    """Reject a Hellinger radius outside [0, 1]."""
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"Hellinger radius must lie in [0, 1], got {rho}")


def c_rho(rho: float) -> float:
    """Radius coefficient sqrt(rho^2 (1-rho^2)^2 (2-rho^2)); zero at rho in {0, 1}."""
    check_radius(rho)
    r2 = rho * rho
    return math.sqrt(r2 * (1.0 - r2) ** 2 * (2.0 - r2))


def validity_radius(ratio2: float) -> float:
    """sqrt(1 - 1/sqrt(1 + r^2)): where the sign condition behind a certificate
    fails, for the squared ratio r^2 of its headroom to its spread."""
    return math.sqrt(1.0 - 1.0 / math.sqrt(1.0 + ratio2))


def max_valid_radius_upper(stats: LossStatistics) -> float:
    """Largest radius at which the upper certificate is defined.

    Equals sqrt(1 - [1 + (M-E)^2/V]^(-1/2)); the condition is vacuous for a
    zero-variance loss, where any radius in [0, 1] is admissible, and leaves
    only radius 0 at E = M with V > 0.
    """
    if stats.variance <= 0.0:
        return 1.0
    gap = stats.ceiling - stats.mean
    return validity_radius(gap * gap / stats.variance)


def max_valid_radius_lower(stats: LossStatistics) -> float:
    """Largest radius at which the lower certificate is defined (vacuous for V = 0)."""
    if stats.variance <= 0.0:
        return 1.0
    # Radius 0 at E = 0 with V > 0, as the upper radius at E = M.
    return validity_radius(stats.mean * stats.mean / stats.variance)


def upper_value(mean: float, variance: float, headroom: float, rho: float) -> float:
    """The upper certificate's value E + 2 C(rho) sqrt(V) + rho^2 (2 - rho^2) [h - V / h].

    ``headroom`` h is the distance from the mean to the ceiling.  The V/h
    correction is taken as 0 at h <= 0, where V = 0 or only rho = 0 is
    valid, so the value is E.
    """
    correction = variance / headroom if headroom > 0.0 else 0.0
    r2 = rho * rho
    return mean + 2.0 * c_rho(rho) * math.sqrt(variance) + r2 * (2.0 - r2) * (headroom - correction)


def report(direction: str, rho: float, raw: float, mv: float, inputs, ceiling: float,
           confidence: Optional[float] = None) -> CertificateReport:
    """A certificate's report at radius ``rho`` against its validity radius ``mv``.

    Inside, the bound is ``raw`` clamped into the attainable range
    [0, ceiling], and a non-finite ``raw`` raises ValueError: inputs whose
    terms overflow the float range certify nothing.  Beyond, ``raw`` is not
    looked at: the bound is the trivial one, ``ceiling`` (upper) or 0
    (lower), flagged ``vacuous``, with ``raw_bound`` None.
    """
    if rho > mv:
        return CertificateReport(direction=direction, radius=rho, bound=ceiling if direction == "upper" else 0.0,
                                 raw_bound=None, max_valid_radius=mv, inputs=inputs,
                                 confidence=confidence, vacuous=True)
    if not math.isfinite(raw):
        raise ValueError(f"{direction} certificate at radius {rho} is {raw}: its terms overflow the float range")
    return CertificateReport(direction=direction, radius=rho, bound=min(max(raw, 0.0), ceiling),
                             raw_bound=raw, max_valid_radius=mv, inputs=inputs,
                             confidence=confidence)


def upper_bound(stats: LossStatistics, rho: float) -> CertificateReport:
    """Certified upper bound on sup E_Q[loss] over the radius-rho Hellinger ball.

    Value :func:`upper_value` at headroom M - E, valid up to
    :func:`max_valid_radius_upper`.
    """
    mv = max_valid_radius_upper(stats)
    raw = upper_value(stats.mean, stats.variance, stats.ceiling - stats.mean, rho)
    return report("upper", rho, raw, mv, stats, stats.ceiling)


def lower_bound(stats: LossStatistics, rho: float) -> CertificateReport:
    """Certified lower bound on inf E_Q[loss] over the radius-rho Hellinger ball.

    Value:  E - 2 C(rho) sqrt(V) - rho^2 (2 - rho^2) [E - V / E], the upper
    value negated for the loss -l, whose mean -E sits E below its ceiling 0.
    """
    mv = max_valid_radius_lower(stats)
    raw = 0.0 - upper_value(-stats.mean, stats.variance, stats.mean, rho)  # 0 - u: a zero bound is +0
    return report("lower", rho, raw, mv, stats, stats.ceiling)


def classification_error_upper(error_rate: float, rho: float) -> CertificateReport:
    """Worst-case classification error over the Hellinger ball.

    Specialization to the 0-1 loss: the upper certificate at E = eps,
    V = eps(1 - eps), M = 1, which is

        eps + 2 C(rho) sqrt(eps (1 - eps)) + rho^2 (2 - rho^2) (1 - 2 eps),

    valid for rho^2 <= 1 - sqrt(eps).  At eps = 0 the bound rho^2 (2 - rho^2)
    is attained exactly by moving probability mass onto a misclassified point.
    """
    return upper_bound(LossStatistics(error_rate, error_rate * (1.0 - error_rate), 1.0), rho)


def certificate_band(stats: LossStatistics, rho: float):
    """(lower, lower_trivial, upper, upper_trivial) at a radius: each bound with
    its ``vacuous`` flag."""
    lower, upper = lower_bound(stats, rho), upper_bound(stats, rho)
    return lower.bound, lower.vacuous, upper.bound, upper.vacuous
