import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hellcert.rng import stream
from hellcert.shifts import (
    DiscreteDistribution,
    auc_composite_radius,
    discrete_hellinger,
    mixture_hellinger_disjoint,
)

HELLINGER_HALF_POINT = 0.5411961001461970  # p=(1/2,1/2), q=(1,0), mpmath
MIX_QUARTER = 0.7071067811865476
AUC_COMP_03 = 0.41460824883255760


def test_distribution_normalizes():
    d = DiscreteDistribution([2.0, 2.0])
    assert np.allclose(d.probs, [0.5, 0.5])
    assert abs(d.probs.sum() - 1.0) < 1e-12


@pytest.mark.cpu_bits
def test_distribution_rejects_bad_input():
    with pytest.raises(ValueError):
        DiscreteDistribution([0.5, -0.1])
    with pytest.raises(ValueError):
        DiscreteDistribution([0.0, 0.0])
    with pytest.raises(ValueError):
        DiscreteDistribution([])
    # Named as before; the suite turns a RuntimeWarning into a failure.
    for probs, message in (([math.inf, -math.inf], "finite"), ([math.nan, 1.0], "finite"),
                           ([-math.inf, 1.0], "finite"), ([1.0, -1e-300], "non-negative"),
                           ([0.0], "positive total mass")):
        with pytest.raises(ValueError, match=message):
            DiscreteDistribution(probs)


@pytest.mark.cpu_bits
def test_distribution_with_an_overflowing_total():
    assert DiscreteDistribution([1e308, 1e308]).probs.tolist() == [0.5, 0.5]
    big = DiscreteDistribution([1.7e308, 0.0, 1.7e308, 8.5e307])
    assert big.probs.tolist() == [0.4, 0.0, 0.4, 0.2]


@pytest.mark.cpu_bits
def test_distribution_with_a_finite_total_keeps_its_bits():
    gen = stream(23)
    for k in (1, 2, 7, 64, 1000):
        for scale in (1e-300, 1.0, 1e300 / k):
            probs = scale * gen.dirichlet(np.full(k, 0.5))
            assert DiscreteDistribution(probs).probs.tobytes() == (probs / probs.sum()).tobytes()


def test_hellinger_identity_and_disjoint():
    p = DiscreteDistribution([0.3, 0.7])
    assert discrete_hellinger(p, p) == 0.0
    one = DiscreteDistribution([1.0, 0.0])
    other = DiscreteDistribution([0.0, 1.0])
    assert discrete_hellinger(one, other) == pytest.approx(1.0, abs=1e-15)


def test_hellinger_frozen_value():
    p = DiscreteDistribution([0.5, 0.5])
    q = DiscreteDistribution([1.0, 0.0])
    assert discrete_hellinger(p, q) == pytest.approx(HELLINGER_HALF_POINT, abs=1e-14)


def test_hellinger_pads_unequal_supports():
    p = DiscreteDistribution([1.0])
    q = DiscreteDistribution([0.5, 0.5])
    expect = math.sqrt(0.5 * ((1 - math.sqrt(0.5)) ** 2 + 0.5))
    assert discrete_hellinger(p, q) == pytest.approx(expect, abs=1e-14)


def test_label_shift_equals_discrete_everywhere():
    gen = stream(21)
    for _ in range(300):
        k = int(gen.integers(1, 12))
        p = DiscreteDistribution(gen.dirichlet(np.ones(k)))
        q = DiscreteDistribution(gen.dirichlet(np.ones(k)))
        # Independent form: sqrt(0.5 sum (sqrt(p_i) - sqrt(q_i))^2), summed in Python.
        h2 = 0.5 * sum((math.sqrt(a) - math.sqrt(b)) ** 2 for a, b in zip(p.probs, q.probs))
        assert abs(discrete_hellinger(p, q) - math.sqrt(h2)) < 1e-14


def test_hellinger_is_a_metric():
    gen = stream(22)
    for _ in range(2000):
        k = int(gen.integers(2, 8))
        p = DiscreteDistribution(gen.dirichlet(np.ones(k)))
        q = DiscreteDistribution(gen.dirichlet(np.ones(k)))
        r = DiscreteDistribution(gen.dirichlet(np.ones(k)))
        dpq = discrete_hellinger(p, q)
        assert dpq == discrete_hellinger(q, p)  # symmetry, exact
        assert dpq <= discrete_hellinger(p, r) + discrete_hellinger(r, q) + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=6))
def test_hellinger_identity_of_indiscernibles(weights):
    p = DiscreteDistribution(weights)
    assert discrete_hellinger(p, p) < 1e-12


def test_mixture_hellinger():
    assert mixture_hellinger_disjoint(1.0) == 0.0
    assert mixture_hellinger_disjoint(0.0) == 1.0
    assert mixture_hellinger_disjoint(0.25) == pytest.approx(MIX_QUARTER, abs=1e-14)
    with pytest.raises(ValueError):
        mixture_hellinger_disjoint(1.5)
    with pytest.raises(ValueError):
        mixture_hellinger_disjoint(-0.1)


def test_mixture_matches_discrete_construction():
    # gamma P + (1-gamma) Q with disjoint supports, checked against the
    # generic discrete distance.
    gen = stream(23)
    for _ in range(50):
        gamma = float(gen.uniform(0.01, 0.99))
        p_part = gen.dirichlet(np.ones(4))
        q_part = gen.dirichlet(np.ones(3))
        p = DiscreteDistribution(np.concatenate([p_part, np.zeros(3)]))
        mix = DiscreteDistribution(np.concatenate([gamma * p_part, (1 - gamma) * q_part]))
        assert discrete_hellinger(p, mix) == pytest.approx(
            mixture_hellinger_disjoint(gamma), abs=1e-12
        )


def test_auc_composite_radius():
    assert auc_composite_radius(0.0) == 0.0
    assert auc_composite_radius(1.0) == 1.0
    assert auc_composite_radius(0.3) == pytest.approx(AUC_COMP_03, abs=1e-14)
    with pytest.raises(ValueError):
        auc_composite_radius(1.2)


def test_auc_composite_dominates_single_radius():
    for rho in np.linspace(0.0, 1.0, 21):
        assert auc_composite_radius(float(rho)) >= rho - 1e-15
