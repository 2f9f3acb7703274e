import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hellcert.bounds import (
    CertificateReport,
    LossStatistics,
    c_rho,
    certificate_band,
    classification_error_upper,
    lower_bound,
    max_valid_radius_lower,
    max_valid_radius_upper,
    upper_bound,
)
from hellcert.finite_sample import ConfidenceBudget, EmpiricalSample, corollary_lower_bound, corollary_upper_bound
from hellcert.rng import stream

# High-precision reference values, evaluated independently with mpmath at
# 40 digits and frozen here.
C_RHO_01 = 0.13965668619869226
MVR_UPPER_01_009 = 0.8269052146305295
UPPER_01_009_01 = 0.19971401171921535
LOWER_05_025_01 = 0.36034331380130774


def test_c_rho_endpoints():
    assert c_rho(0.0) == 0.0
    assert c_rho(1.0) == 0.0


def test_c_rho_frozen_value():
    assert c_rho(0.1) == pytest.approx(C_RHO_01, abs=1e-15)


def test_c_rho_range():
    for rho in np.linspace(0.0, 1.0, 101):
        assert 0.0 <= c_rho(float(rho)) <= 1.0


@pytest.mark.parametrize("rho", [-0.1, 1.1, 2.0])
def test_c_rho_domain_error(rho):
    with pytest.raises(ValueError):
        c_rho(rho)


def test_loss_statistics_rejects_bhatia_davis_violation():
    # Bernoulli variance cap at mean 0.1 is 0.09; 0.1 exceeds it.
    with pytest.raises(ValueError):
        LossStatistics(mean=0.1, variance=0.1, ceiling=1.0)


def test_loss_statistics_rejects_bad_mean():
    with pytest.raises(ValueError):
        LossStatistics(mean=1.5, variance=0.0, ceiling=1.0)
    with pytest.raises(ValueError):
        LossStatistics(mean=-0.1, variance=0.0, ceiling=1.0)


def test_loss_statistics_accepts_bernoulli_equality():
    LossStatistics(mean=0.3, variance=0.3 * 0.7, ceiling=1.0)


def test_max_valid_radius_upper_zero_variance():
    assert max_valid_radius_upper(LossStatistics(0.5, 0.0, 1.0)) == 1.0
    assert max_valid_radius_upper(LossStatistics(0.0, 0.0, 1.0)) == 1.0


def test_max_valid_radius_upper_frozen():
    stats = LossStatistics(0.1, 0.09, 1.0)
    assert max_valid_radius_upper(stats) == pytest.approx(MVR_UPPER_01_009, abs=1e-12)
    # Bernoulli closed form: rho^2 <= 1 - sqrt(eps).
    assert max_valid_radius_upper(stats) == pytest.approx(
        math.sqrt(1.0 - math.sqrt(0.1)), abs=1e-12
    )


def test_upper_bound_zero_variance():
    r = upper_bound(LossStatistics(0.3, 0.0, 1.0), 0.2)
    assert r.bound == pytest.approx(0.3 + 0.04 * 1.96 * 0.7, abs=1e-15)


def test_upper_bound_faithful_at_zero():
    r = upper_bound(LossStatistics(0.3, 0.1, 1.0), 0.0)
    assert r.bound == 0.3


def test_upper_bound_frozen():
    r = upper_bound(LossStatistics(0.1, 0.09, 1.0), 0.1)
    assert r.bound == pytest.approx(UPPER_01_009_01, abs=1e-12)


def test_upper_bound_beyond_radius_carries_max_valid():
    stats = LossStatistics(0.1, 0.09, 1.0)
    r = upper_bound(stats, 0.9)
    assert (r.vacuous, r.bound, r.raw_bound) == (True, 1.0, None)
    assert r.max_valid_radius == pytest.approx(MVR_UPPER_01_009, abs=1e-12)


def test_upper_bound_accepts_radius_at_exact_validity():
    stats = LossStatistics(0.1, 0.09, 1.0)
    upper_bound(stats, max_valid_radius_upper(stats))


def test_mean_at_ceiling_with_positive_variance_is_the_trivial_sup():
    # The Bhatia-Davis slack admits V > 0 at E = M, as a mean rounded to the
    # ceiling leaves it: the upper certificate is valid at radius 0 alone,
    # and beyond it the report is the trivial sup, flagged.
    stats = LossStatistics(1.0, 2.5e-18, 1.0)
    assert max_valid_radius_upper(stats) == 0.0
    report = upper_bound(stats, 0.0)
    assert report.bound == report.raw_bound == 1.0
    beyond = upper_bound(stats, 1e-9)
    assert (beyond.vacuous, beyond.bound, beyond.raw_bound, beyond.max_valid_radius) == (True, 1.0, None, 0.0)
    lower, lower_trivial, upper, upper_trivial = certificate_band(stats, 0.1)
    assert (upper, upper_trivial) == (1.0, True)
    assert not lower_trivial and 0.0 <= lower <= 1.0
    # The mirror case for the lower certificate.
    at_zero = LossStatistics(0.0, 2.5e-18, 1.0)
    assert max_valid_radius_lower(at_zero) == 0.0
    assert lower_bound(at_zero, 0.0).bound == 0.0
    assert certificate_band(at_zero, 0.1)[:2] == (0.0, True)


def test_lower_bound_trivials():
    assert lower_bound(LossStatistics(0.3, 0.1, 1.0), 0.0).bound == 0.3
    r = lower_bound(LossStatistics(0.4, 0.0, 1.0), 0.2)
    assert r.bound == pytest.approx(0.4 * (1 - 0.04) ** 2, abs=1e-15)
    # A zero loss is certified +0, not -0, which the curve CSV would print.
    zero = lower_bound(LossStatistics(0.0, 0.0, 1.0), 0.5)
    assert math.copysign(1.0, zero.raw_bound) == math.copysign(1.0, zero.bound) == 1.0


def test_lower_bound_frozen():
    r = lower_bound(LossStatistics(0.5, 0.25, 1.0), 0.1)
    assert r.bound == pytest.approx(LOWER_05_025_01, abs=1e-12)


def test_lower_bound_validity_radius():
    stats = LossStatistics(0.5, 0.25, 1.0)
    # 1 - [1 + E^2/V]^(-1/2) with E^2/V = 1.
    expect = math.sqrt(1.0 - 2.0 ** -0.5)
    assert max_valid_radius_lower(stats) == pytest.approx(expect, abs=1e-12)
    r = lower_bound(stats, expect + 1e-6)
    assert (r.vacuous, r.bound, r.raw_bound) == (True, 0.0, None)
    assert r.max_valid_radius == max_valid_radius_lower(stats)


def test_classification_error_trivials():
    assert classification_error_upper(0.0, 0.3).bound == pytest.approx(0.1719, abs=1e-15)
    assert classification_error_upper(0.5, 0.0).bound == 0.5


def test_classification_error_frozen_and_consistent():
    r = classification_error_upper(0.1, 0.1)
    assert r.bound == pytest.approx(UPPER_01_009_01, abs=1e-12)


def test_classification_error_matches_general_bound():
    for eps in (0.02, 0.1, 0.33, 0.5, 0.77, 0.9):
        for frac in (0.0, 0.3, 0.9):
            rho = frac * math.sqrt(1.0 - math.sqrt(eps))
            direct = classification_error_upper(eps, rho).bound
            general = upper_bound(
                LossStatistics(eps, eps * (1 - eps), 1.0), rho
            ).bound
            assert direct == pytest.approx(general, abs=1e-12)


def test_classification_error_all_wrong_is_one_at_every_radius():
    # At eps = 1 the variance is 0: the loss is 1 under every law in the ball.
    for rho in (0.0, 0.1, 0.5, 1.0):
        r = classification_error_upper(1.0, rho)
        assert (r.vacuous, r.bound, r.raw_bound, r.max_valid_radius) == (False, 1.0, 1.0, 1.0)


def test_report_rejects_radius_beyond_validity():
    with pytest.raises(ValueError):
        CertificateReport(
            direction="upper", radius=0.5, bound=1.0, raw_bound=1.0,
            max_valid_radius=0.4, inputs=None,
        )
    with pytest.raises(ValueError):
        CertificateReport(
            direction="upper", radius=0.3, bound=1.0, raw_bound=None,
            max_valid_radius=0.4, inputs=None, vacuous=True,
        )


def _corollary(certificate, losses):
    return lambda rho: certificate(EmpiricalSample(losses, 1.0), rho, ConfidenceBudget(0.05))


# One certificate per case, as a function of the radius, with its trivial bound.
EDGE_CASES = {
    "upper": (lambda rho: upper_bound(LossStatistics(0.4, 0.18, 2.0), rho), 2.0),
    "upper-mean-at-ceiling": (lambda rho: upper_bound(LossStatistics(1.0, 2.5e-18, 1.0), rho), 1.0),
    "lower": (lambda rho: lower_bound(LossStatistics(0.5, 0.25, 1.0), rho), 0.0),
    "lower-mean-at-zero": (lambda rho: lower_bound(LossStatistics(0.0, 2.5e-18, 1.0), rho), 0.0),
    "classification-error": (lambda rho: classification_error_upper(0.1, rho), 1.0),
    "corollary-upper": (_corollary(corollary_upper_bound, stream(5).random(500)), 1.0),
    "corollary-upper-at-ceiling": (_corollary(corollary_upper_bound, np.ones(100)), 1.0),
    "corollary-lower": (_corollary(corollary_lower_bound, 0.5 + 0.5 * stream(6).random(500)), 0.0),
    "corollary-lower-at-zero": (_corollary(corollary_lower_bound, np.zeros(10)), 0.0),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_every_certificate_at_and_just_beyond_its_validity_radius(case):
    certify, trivial = EDGE_CASES[case]
    mv = certify(0.0).max_valid_radius
    assert mv < 1.0
    at = certify(mv)
    assert not at.vacuous and math.isfinite(at.raw_bound)
    beyond = certify(math.nextafter(mv, 2.0))
    assert beyond.vacuous and (beyond.bound, beyond.raw_bound) == (trivial, None)
    assert (beyond.max_valid_radius, beyond.confidence) == (mv, at.confidence)
    with pytest.raises(ValueError):
        certify(1.5)


def test_upper_reaches_ceiling_at_validity_edge():
    # Bernoulli at mean 1/2 with the radius at its validity maximum: the raw
    # value meets the ceiling exactly, and the clamp keeps it there.
    stats = LossStatistics(0.5, 0.25, 1.0)
    r = upper_bound(stats, max_valid_radius_upper(stats))
    assert r.raw_bound == pytest.approx(1.0, abs=1e-12)
    assert r.bound <= 1.0


@st.composite
def valid_upper_inputs(draw):
    ceiling = draw(st.floats(0.5, 4.0))
    mean = draw(st.floats(0.0, 0.99)) * ceiling
    bd = mean * (ceiling - mean)
    variance = draw(st.floats(0.0, 1.0)) * bd
    stats = LossStatistics(mean, variance, ceiling)
    rho = draw(st.floats(0.0, 1.0)) * max_valid_radius_upper(stats) * 0.9999
    return stats, rho


@settings(max_examples=200, deadline=None)
@given(valid_upper_inputs())
def test_domination_upper(inputs):
    stats, rho = inputs
    assert upper_bound(stats, rho).bound >= stats.mean - 1e-12


@st.composite
def valid_lower_inputs(draw):
    ceiling = draw(st.floats(0.5, 4.0))
    mean = draw(st.floats(0.01, 1.0)) * ceiling
    bd = mean * (ceiling - mean)
    variance = draw(st.floats(0.0, 1.0)) * bd
    stats = LossStatistics(mean, variance, ceiling)
    rho = draw(st.floats(0.0, 1.0)) * max_valid_radius_lower(stats) * 0.9999
    return stats, rho


@settings(max_examples=200, deadline=None)
@given(valid_lower_inputs())
def test_domination_lower(inputs):
    stats, rho = inputs
    r = lower_bound(stats, rho)
    assert r.bound <= stats.mean + 1e-12
    assert r.bound >= 0.0


@settings(max_examples=200, deadline=None)
@given(valid_lower_inputs())
def test_lower_bound_is_the_lower_expression_bit_for_bit(inputs):
    # The lower bound is evaluated as the negated upper value of -loss; that
    # rounds exactly like E - 2 C sqrt(V) - rho^2 (2 - rho^2) (E - V/E).
    stats, rho = inputs
    e, v = stats.mean, stats.variance
    shrink = rho * rho * (2.0 - rho * rho)
    expect = e - 2.0 * c_rho(rho) * math.sqrt(v) - shrink * (e - v / e)
    assert lower_bound(stats, rho).raw_bound == expect


@settings(max_examples=200, deadline=None)
@given(valid_upper_inputs())
def test_variance_monotonicity_property(inputs):
    stats, rho = inputs
    dv = 1e-6 * stats.ceiling**2
    bumped_var = stats.variance + dv
    bd = stats.mean * (stats.ceiling - stats.mean)
    if bumped_var > bd:
        return
    bumped = LossStatistics(stats.mean, bumped_var, stats.ceiling)
    if rho > max_valid_radius_upper(bumped):
        return
    assert upper_bound(bumped, rho).bound >= upper_bound(stats, rho).bound - 1e-12
