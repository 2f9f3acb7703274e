import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hellcert.bounds import (
    LossStatistics,
    RadiusValidityError,
    c_rho,
    max_valid_radius_upper,
    upper_bound,
    upper_value,
    validity_radius,
)
from hellcert.finite_sample import (
    ConfidenceBudget,
    EmpiricalSample,
    corollary_lower_bound,
    corollary_upper_bound,
    hoeffding_mean_lower,
    hoeffding_mean_upper,
    max_valid_radius_empirical,
    max_valid_radius_empirical_lower,
    maurer_pontil_std_upper,
)
from hellcert.rng import stream

# mpmath-frozen references.
HOEFF_UP_02_100_001 = 0.35174271293851464  # 0.2 + sqrt(ln(100)/200)
HOEFF_LO_02_100_001 = 0.048257287061485365
MP_STD_CONST_101_005 = 0.24477468306808165  # sqrt(2 ln 20 / 100)
MVR_EMP_1E6 = 0.8247240066542434  # L=0.1 S2=0.09 M=1 n=1e6 d=0.01, ln(2/d) uniform
MVR_POP = 0.8269052146305295
COR_UP_REF = 0.17194693615258724  # L=0.1 S2=0.09 M=1 n=200 d=0.05 rho=0.05


def make_sample(mean, variance, n, ceiling=1.0):
    """Statistics-only stand-in for an EmpiricalSample (for formula-level tests)."""
    return SimpleNamespace(n=n, empirical_mean=mean, unbiased_variance=variance, ceiling=ceiling)


def published_upper(n, mean, var, m, rho, delta):
    """Raw finite-sample upper certificate, the published expression term by term.

    L + 2 C sqrt(S^2) + Delta + rho^2 (2 - rho^2) [M - L + U / (L - M (1 - sqrt(ln(2/d)/2n)))]
    with U the squared Maurer-Pontil bound; undefined at rho = 0 when the
    denominator vanishes.  Returns the value and the sum of its terms'
    magnitudes, the scale its rounding error is relative to.
    """
    ln2d = math.log(2.0 / delta)
    cr = c_rho(rho)
    shrink = rho * rho * (2.0 - rho * rho)
    slack = (2.0 * cr / math.sqrt(n - 1) - shrink / (2.0 * math.sqrt(n))) * m * math.sqrt(2.0 * ln2d)
    u = var + 2.0 * m * math.sqrt(2.0 * var * ln2d / (n - 1)) + 2.0 * m * m * ln2d / (n - 1)
    denom = mean - m * (1.0 - math.sqrt(ln2d / (2.0 * n)))
    value = mean + 2.0 * cr * math.sqrt(var) + slack + shrink * (m - mean + u / denom)
    scale = mean + 2.0 * cr * math.sqrt(var) + abs(slack) + shrink * (m - mean - u / denom)
    return value, scale


def pairwise_unbiased_variance(losses) -> float:
    """Literal pairwise form (1/(n(n-1))) sum_{i<j} (x_i - x_j)^2.

    O(n^2); an independent reference for the ddof=1 variance, which it
    equals algebraically.
    """
    x = np.asarray(losses, dtype=float)
    n = x.size
    diffs = x[:, None] - x[None, :]
    return float(np.sum(np.triu(diffs * diffs, k=1)) / (n * (n - 1)))


def test_sample_validation():
    with pytest.raises(ValueError):
        EmpiricalSample([0.5], 1.0)  # n < 2
    with pytest.raises(ValueError, match="index 2"):
        EmpiricalSample([0.1, 0.2, 1.5], 1.0)
    with pytest.raises(ValueError, match="index 0"):
        EmpiricalSample([-0.1, 0.2], 1.0)


def test_sample_moments():
    s = EmpiricalSample([0.0, 1.0, 1.0, 0.0], 1.0)
    assert s.empirical_mean == 0.5
    assert s.unbiased_variance == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert float(np.mean(np.full(100, 0.001))) > 0.001
    assert EmpiricalSample(np.full(100, 0.001), 0.001).empirical_mean == 0.001
    # np.var of a constant sample is 4.7e-38 here: its mean rounds off the constant.
    assert float(np.var(np.full(100, 0.001), ddof=1)) > 0.0
    assert EmpiricalSample(np.full(100, 0.001), 1.0).unbiased_variance == 0.0
    spread = stream(85).random(1000)
    assert EmpiricalSample(spread, 1.0).unbiased_variance == float(np.var(spread, ddof=1))


def test_hoeffding_examples():
    s = make_sample(0.2, 0.0, 100)
    assert hoeffding_mean_upper(s, 1.0) == s.empirical_mean
    assert hoeffding_mean_lower(s, 1.0) == s.empirical_mean
    assert hoeffding_mean_upper(s, 0.01) == pytest.approx(HOEFF_UP_02_100_001, abs=1e-12)
    assert hoeffding_mean_lower(s, 0.01) == pytest.approx(HOEFF_LO_02_100_001, abs=1e-12)
    big = make_sample(0.2, 0.0, 10**9)
    assert hoeffding_mean_upper(big, 0.01) == pytest.approx(0.2, abs=1e-4)


def test_hoeffding_lower_clamps():
    s = make_sample(0.0, 0.0, 50)
    assert hoeffding_mean_lower(s, 0.1) == 0.0


def test_maurer_pontil_examples():
    s = EmpiricalSample(np.full(101, 0.3), 1.0)
    assert maurer_pontil_std_upper(s, 1.0) == 0.0
    assert maurer_pontil_std_upper(s, 0.05) == pytest.approx(MP_STD_CONST_101_005, abs=1e-12)
    big = make_sample(0.3, 0.04, 10**9)
    assert maurer_pontil_std_upper(big, 0.05) == pytest.approx(0.2, abs=1e-3)


def test_pairwise_variance_is_the_unbiased_variance():
    gen = stream(404)
    for _ in range(50):
        n = int(gen.integers(2, 40))
        x = gen.random(n)
        assert pairwise_unbiased_variance(x) == pytest.approx(
            float(np.var(x, ddof=1)), abs=1e-12
        )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30))
def test_pairwise_variance_property(values):
    x = np.asarray(values)
    assert pairwise_unbiased_variance(x) == pytest.approx(
        float(np.var(x, ddof=1)), abs=1e-10
    )


def test_budget_validation():
    with pytest.raises(ValueError):
        ConfidenceBudget(0.0)
    with pytest.raises(ValueError):
        ConfidenceBudget(1.0)


def test_corollary_upper_at_zero_radius_is_exact_mean():
    s = EmpiricalSample(np.array([0.1, 0.4, 0.7, 0.9]), 1.0)
    cert = corollary_upper_bound(s, 0.0, ConfidenceBudget(0.05))
    assert cert.bound == s.empirical_mean


def test_corollary_upper_frozen_value():
    s = make_sample(0.1, 0.09, 200)
    cert = corollary_upper_bound(s, 0.05, ConfidenceBudget(0.05))
    assert cert.bound == pytest.approx(COR_UP_REF, abs=1e-10)
    assert cert.confidence == pytest.approx(0.95)


def test_corollary_upper_ceiling_saturation():
    # All losses at the ceiling: only rho = 0 is certifiable and the output
    # sits at the ceiling.
    s = EmpiricalSample(np.ones(100), 1.0)
    budget = ConfidenceBudget(0.05)
    assert max_valid_radius_empirical(s, budget) == 0.0
    cert = corollary_upper_bound(s, 0.0, budget)
    assert cert.bound == 1.0
    with pytest.raises(RadiusValidityError):
        corollary_upper_bound(s, 0.1, budget)


def test_corollary_upper_requires_two_way():
    # The direction fixes the split, and a budget carries none of its own:
    # the upper certificate spends delta/2 on the mean and delta/2 on the
    # standard deviation.
    with pytest.raises(TypeError):
        ConfidenceBudget(0.05, "three_way")
    s = EmpiricalSample(stream(5).random(200), 1.0)
    budget = ConfidenceBudget(0.05)
    headroom = s.ceiling - hoeffding_mean_upper(s, budget.delta / 2.0)
    sigma = maurer_pontil_std_upper(s, budget.delta / 2.0)
    mv = max_valid_radius_empirical(s, budget)
    assert mv == pytest.approx(validity_radius((headroom / sigma) ** 2), rel=1e-12)
    rho = 0.5 * mv
    cert = corollary_upper_bound(s, rho, budget)
    assert cert.confidence == 1.0 - budget.delta
    assert cert.raw_bound == pytest.approx(
        upper_value(s.empirical_mean, sigma * sigma, headroom, rho), rel=1e-12
    )
    # A three-way split would give a visibly different (larger) value.
    d3 = budget.delta / 3.0
    sigma3 = maurer_pontil_std_upper(s, d3)
    three_way = upper_value(s.empirical_mean, sigma3 * sigma3, s.ceiling - hoeffding_mean_upper(s, d3), rho)
    assert cert.raw_bound < three_way - 1e-6


def test_corollary_lower_clamps_and_ordering():
    s = EmpiricalSample(np.zeros(100), 1.0)
    cert = corollary_lower_bound(s, 0.0, ConfidenceBudget(0.05))
    assert cert.bound == 0.0
    s2 = EmpiricalSample(stream(3).random(400), 1.0)
    up = corollary_upper_bound(s2, 0.0, ConfidenceBudget(0.05))
    lo = corollary_lower_bound(s2, 0.0, ConfidenceBudget(0.05))
    assert lo.bound <= s2.empirical_mean <= up.bound
    # At its validity radius the conservative lower value is negative, and
    # the bound is clamped to 0.
    half = EmpiricalSample(np.repeat([0.0, 1.0], 25), 1.0)
    budget = ConfidenceBudget(0.05)
    edge = corollary_lower_bound(half, max_valid_radius_empirical_lower(half, budget), budget)
    assert edge.raw_bound < 0.0 and edge.bound == 0.0


def test_corollary_lower_approaches_mean():
    # At rho = 0 the only slack left is the delta/3 Hoeffding term, which
    # dies as n grows.
    s = make_sample(0.8, 0.16, 10**8)
    cert = corollary_lower_bound(s, 0.0, ConfidenceBudget(1.0 - 1e-9))
    assert cert.bound == pytest.approx(0.8, abs=1e-3)


def test_corollary_lower_requires_three_way():
    # The lower certificate spends delta/3 on each of the mean from below,
    # the mean from above and the standard deviation.
    s = EmpiricalSample(stream(6).random(200), 1.0)
    budget = ConfidenceBudget(0.05)
    d3 = budget.delta / 3.0
    e_lo = hoeffding_mean_lower(s, d3)
    e_hi = hoeffding_mean_upper(s, d3)
    std_up = maurer_pontil_std_upper(s, d3)
    mv = max_valid_radius_empirical_lower(s, budget)
    assert mv == validity_radius((e_lo / std_up) ** 2)
    rho = 0.5 * mv
    cert = corollary_lower_bound(s, rho, budget)
    assert cert.confidence == 1.0 - budget.delta
    shrink = rho * rho * (2.0 - rho * rho)
    assert cert.raw_bound == pytest.approx(e_lo - 2.0 * c_rho(rho) * std_up - shrink * e_hi, rel=1e-12)
    # Half the budget per part (the upper certificate's split) would certify more.
    half = budget.delta / 2.0
    two_way = (hoeffding_mean_lower(s, half) - 2.0 * c_rho(rho) * maurer_pontil_std_upper(s, half)
               - shrink * hoeffding_mean_upper(s, half))
    assert cert.raw_bound < two_way - 1e-6


def test_max_valid_radius_empirical_frozen_and_convergent():
    assert max_valid_radius_empirical(
        make_sample(0.1, 0.09, 10**6), ConfidenceBudget(0.01)
    ) == pytest.approx(MVR_EMP_1E6, abs=1e-12)
    # Approaches the population radius; 1e-3 agreement needs n ~ 1e7.
    assert max_valid_radius_empirical(
        make_sample(0.1, 0.09, 10**7), ConfidenceBudget(0.01)
    ) == pytest.approx(MVR_POP, abs=1e-3)


def test_max_valid_radius_empirical_degenerate_cases():
    # All-zero losses at tiny n: some radius certifiable, far from the full ball.
    mv = max_valid_radius_empirical(EmpiricalSample(np.zeros(4), 1.0), ConfidenceBudget(0.5))
    assert 0.0 < mv < 1.0
    # Tiny n with zero mean: headroom positive, but a mean at the ceiling kills it.
    assert max_valid_radius_empirical(
        EmpiricalSample(np.ones(4), 1.0), ConfidenceBudget(0.5)
    ) == 0.0
    # S^2 = 0, L < M, huge n: approaches 1 (population V -> 0 limit).
    assert max_valid_radius_empirical(
        make_sample(0.3, 0.0, 10**10), ConfidenceBudget(0.999)
    ) > 0.99


def test_max_valid_radius_lower_zero_mean():
    assert max_valid_radius_empirical_lower(
        EmpiricalSample(np.zeros(10), 1.0), ConfidenceBudget(0.05)
    ) == 0.0


def test_corollary_lower_covers_oracle_inf():
    # Bernoulli(0.8) losses, n=500, rho=0.1: the conservative lower
    # certificate must sit below the exact infimum in every trial.
    from hellcert.oracle import DiscreteInstance, worst_case_inf

    true_inf = worst_case_inf(
        DiscreteInstance([0.2, 0.8], [0.0, 1.0], 1.0, 0.1)
    ).value
    budget = ConfidenceBudget(0.05)
    failures = 0
    for t in range(200):
        gen = stream(909, t)
        sample = EmpiricalSample((gen.random(500) < 0.8).astype(float), 1.0)
        try:
            if corollary_lower_bound(sample, 0.1, budget).bound > true_inf:
                failures += 1
        except RadiusValidityError:
            failures += 1
    assert failures == 0


def test_convergence_to_population_bound():
    # i.i.d. draws from a fixed discrete P; at n = 1e6 the finite-sample
    # certificate sits within 1e-2 of the population certificate.
    p = np.array([0.4, 0.3, 0.2, 0.1])
    values = np.array([0.0, 0.2, 0.5, 1.0])
    mean = float(p @ values)
    var = float(p @ (values - mean) ** 2)
    rho, delta = 0.1, 0.05
    pop = upper_bound(LossStatistics(mean, var, 1.0), rho).bound

    gen = stream(1234)
    draws = [values[gen.choice(4, size=100_000, p=p)] for _ in range(10)]
    sample = EmpiricalSample(np.concatenate(draws), 1.0)
    cert = corollary_upper_bound(sample, rho, ConfidenceBudget(delta))
    assert cert.bound == pytest.approx(pop, abs=1e-2)
    assert cert.bound >= pop - 1e-3  # conservative side


@st.composite
def finite_sample_inputs(draw):
    n = draw(st.integers(2, 10**4))
    m = draw(st.floats(1e-3, 1e3))
    mean = draw(st.floats(0.0, 1.0)) * m
    # Any unbiased variance a sample in [0, M] can have: n/(n-1) times Bhatia-Davis.
    var = draw(st.floats(0.0, 1.0)) * mean * (m - mean) * n / (n - 1)
    delta = draw(st.floats(1e-6, 0.9))
    return make_sample(mean, var, n, ceiling=m), ConfidenceBudget(delta), draw(st.floats(0.0, 1.0))


@settings(max_examples=500, deadline=None)
@given(finite_sample_inputs())
def test_corollary_upper_is_the_published_expression(inputs):
    s, budget, fraction = inputs
    n, m, lhat, s2, delta = s.n, s.ceiling, s.empirical_mean, s.unbiased_variance, budget.delta
    ln2d = math.log(2.0 / delta)
    headroom = m * (1.0 - math.sqrt(ln2d / (2.0 * n))) - lhat
    sigma = math.sqrt(s2) + m * math.sqrt(2.0 * ln2d / (n - 1))
    mv = max_valid_radius_empirical(s, budget)
    ratio = headroom / sigma
    assert mv == (validity_radius(ratio * ratio) if headroom > 0.0 else 0.0)
    assert corollary_upper_bound(s, 0.0, budget).raw_bound == lhat
    rho = fraction * mv
    if rho > 0.0:
        raw = corollary_upper_bound(s, rho, budget).raw_bound
        ref, scale = published_upper(n, lhat, s2, m, rho, delta)
        # Where the terms cancel (L near 0) both forms lose the same absolute
        # precision, so the gap is counted in ulps of the terms, not of the
        # result: 4 at most over 1.2M draws, 3 in ulps of the result away
        # from cancellation.
        assert abs(raw - ref) <= 4 * math.ulp(scale)


def test_corollary_upper_at_zero_radius_with_negative_headroom():
    # All losses at the ceiling: the headroom M(1 - sqrt(ln(2/d)/2n)) - L is
    # negative, and radius 0 still certifies exactly the empirical mean (which
    # rounding can put an ulp above M, hence the clamp).
    for n, m in [(2, 1.0), (100, 1e-3), (5000, 1e3)]:
        s = EmpiricalSample(np.full(n, m), m)
        cert = corollary_upper_bound(s, 0.0, ConfidenceBudget(0.05))
        assert cert.raw_bound == s.empirical_mean
        assert cert.bound == min(s.empirical_mean, m)
