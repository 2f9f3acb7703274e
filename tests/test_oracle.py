import json
import math

import numpy as np
import pytest

from hellcert.bounds import (
    LossStatistics,
    certificate_band,
    lower_bound,
    max_valid_radius_lower,
    max_valid_radius_upper,
    upper_bound,
)
from hellcert.oracle import (
    GAP_TOL,
    DiscreteInstance,
    worst_case_inf,
    worst_case_sup,
)
from hellcert.rng import stream
from hellcert.shifts import DiscreteDistribution, discrete_hellinger

from gram import gram_determinant


def hellinger_to(p, q):
    return discrete_hellinger(DiscreteDistribution(p), DiscreteDistribution(q))


def dense_grid_sup(p, losses, rho, steps=1000):
    """Third oracle: exhaustive 1e-3 grid over the 2-simplex (K = 3 only)."""
    i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
    keep = (i + j) <= steps
    q = np.stack([i[keep], j[keep], steps - i[keep] - j[keep]], axis=1) / steps
    affinity = np.sqrt(q * p).sum(axis=1)
    feasible = affinity >= 1.0 - rho * rho
    return float((q[feasible] @ losses).max())


def test_instance_validation():
    with pytest.raises(ValueError):
        DiscreteInstance([0.5, 0.5], [0.0, 2.0], 1.0, 0.1)  # loss above ceiling
    with pytest.raises(ValueError):
        DiscreteInstance([0.5, 0.5], [0.0], 1.0, 0.1)  # length mismatch
    with pytest.raises(ValueError):
        DiscreteInstance([0.5, 0.5], [0.0, 1.0], 1.0, 1.2)  # bad radius


def test_on_support_is_taken_from_the_normalized_masses():
    assert DiscreteInstance([0.25, 0.75], [0.2, 0.9], 1.0, 0.3).on_support is True
    assert DiscreteInstance([0.25, 0.0, 0.75], [0.2, 0.5, 0.9], 1.0, 0.3).on_support is False
    # The sum overflows, so the masses are divided by the largest first, and
    # the smallest one normalizes to 0: a flag from the raw masses would be True.
    inst = DiscreteInstance([1e308, 1e308, 5e-324], [0.2, 0.9, 0.5], 1.0, 0.3)
    assert inst.p.probs[2] == 0.0 and inst.on_support is False
    assert worst_case_sup(inst).value == 0.8141054545063366
    assert worst_case_inf(inst).value == 0.2858945454936633


def test_instance_json_round_trip():
    inst = DiscreteInstance([0.25, 0.75], [0.2, 0.9], 1.0, 0.3)
    again = DiscreteInstance.from_json(inst.to_json())
    assert np.allclose(again.p.probs, inst.p.probs)
    assert np.allclose(again.losses, inst.losses)
    assert again.rho == inst.rho


def test_sup_zero_radius_is_expectation():
    inst = DiscreteInstance([0.2, 0.3, 0.5], [0.1, 0.9, 0.4], 1.0, 0.0)
    res = worst_case_sup(inst)
    assert res.value == pytest.approx(0.2 * 0.1 + 0.3 * 0.9 + 0.5 * 0.4, abs=1e-15)
    assert np.allclose(res.maximizer.probs, inst.p.probs)


def test_sup_two_point_analytic_family():
    # p = (1, 0), losses = (0, 1): the affinity constraint binds at
    # sqrt(q_0) = 1 - rho^2, so sup = 1 - (1 - rho^2)^2 = rho^2 (2 - rho^2).
    for rho in (0.1, 0.3, 0.55, 0.8, 1.0):
        inst = DiscreteInstance([1.0, 0.0], [0.0, 1.0], 1.0, rho)
        res = worst_case_sup(inst)
        expect = rho * rho * (2.0 - rho * rho)
        assert res.value == pytest.approx(expect, abs=1e-9)
        assert res.maximizer.probs[0] == pytest.approx((1 - rho * rho) ** 2, abs=1e-8)


def test_inf_mirror_of_two_point():
    for rho in (0.1, 0.3, 0.55):
        inst = DiscreteInstance([1.0, 0.0], [1.0, 0.0], 1.0, rho)
        res = worst_case_inf(inst)
        assert res.value == pytest.approx((1 - rho * rho) ** 2, abs=1e-9)


def test_sup_saturates_at_vertex_distance():
    # Once rho reaches H(p, e_argmax), the sup hits the max loss exactly.
    p = [0.6, 0.3, 0.1]
    losses = [0.2, 0.5, 0.9]
    vertex_rho = hellinger_to(p, [0.0, 0.0, 1.0])
    res = worst_case_sup(DiscreteInstance(p, losses, 1.0, vertex_rho))
    assert res.value == pytest.approx(0.9, abs=1e-9)
    below = worst_case_sup(DiscreteInstance(p, losses, 1.0, vertex_rho * 0.95))
    assert below.value < 0.9


def test_sup_monotone_in_radius():
    gen = stream(61)
    p = gen.dirichlet(np.ones(5))
    losses = gen.random(5)
    values = [
        worst_case_sup(DiscreteInstance(p, losses, 1.0, float(r))).value
        for r in np.linspace(0.0, 1.0, 21)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_k3_grid_never_exceeds_solvers():
    gen = stream(62)
    for _ in range(8):
        p = gen.dirichlet(np.ones(3))
        losses = gen.random(3)
        rho = float(gen.uniform(0.05, 0.6))
        res = worst_case_sup(DiscreteInstance(p, losses, 1.0, rho))
        grid = dense_grid_sup(p, losses, rho)
        assert res.value >= grid - 1e-9
        assert res.certified_gap <= 1e-6
        res_inf = worst_case_inf(DiscreteInstance(p, losses, 1.0, rho))
        grid_inf = -dense_grid_sup(p, -losses, rho)
        assert res_inf.value <= grid_inf + 1e-9


def test_zero_probability_support_point():
    # Mass may move onto a zero-probability coordinate only by leaving the
    # affinity constraint slack; with p = (1/2, 1/2, 0), losses = (0, 0, 1)
    # the best q places 1 - (1 - rho^2)^2 on the third coordinate.
    for rho in (0.2, 0.4, 0.6):
        inst = DiscreteInstance([0.5, 0.5, 0.0], [0.0, 0.0, 1.0], 1.0, rho)
        res = worst_case_sup(inst)
        expect = rho * rho * (2.0 - rho * rho)
        assert res.value == pytest.approx(expect, abs=1e-7)


def test_tied_max_losses():
    # Two coordinates share the max loss; spreading mass across both
    # proportionally to p maximizes affinity, so saturation happens earlier.
    p = [0.5, 0.25, 0.25]
    losses = [0.0, 1.0, 1.0]
    rho_sat = math.sqrt(1.0 - math.sqrt(0.5))
    res = worst_case_sup(DiscreteInstance(p, losses, 1.0, rho_sat + 1e-6))
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_maximizer_invariants():
    gen = stream(63)
    for _ in range(20):
        k = int(gen.integers(2, 9))
        p = gen.dirichlet(np.ones(k))
        losses = gen.random(k)
        rho = float(gen.uniform(0.0, 0.9))
        inst = DiscreteInstance(p, losses, 1.0, rho)
        res = worst_case_sup(inst)
        q = res.maximizer.probs
        assert abs(q.sum() - 1.0) < 1e-12
        assert res.value == pytest.approx(float(q @ losses), abs=1e-12)
        assert hellinger_to(p, q) <= rho + 1e-9


def test_off_support_boundary_is_closed_form():
    # The max loss sits off-support.  At rho = 0.5 the on-support affinity at
    # nu = max loss (0.7605) already meets c = 0.75, so the leftover mass goes
    # off-support and the dual bound is attained; at rho = 0.4 (c = 0.84) it
    # does not, and off-support points get no mass.
    p = np.array([0.5, 0.3, 0.2, 0.0])
    losses = np.array([0.1, 0.8, 0.3, 0.95])
    res = worst_case_sup(DiscreteInstance(p, losses, 1.0, 0.5))
    q = res.maximizer.probs
    assert res.certified_gap == 0.0
    assert q[3] > 0.0
    assert abs(hellinger_to(p, q) - 0.5) <= 1e-9
    s = float((p[:3] / (0.95 - losses[:3])).sum())
    assert res.value == pytest.approx(0.95 - 0.75**2 / s, abs=1e-12)
    interior = worst_case_sup(DiscreteInstance(p, losses, 1.0, 0.4))
    assert interior.maximizer.probs[3] == 0.0
    assert hellinger_to(p, interior.maximizer.probs) <= 0.4 + 1e-9


def test_proven_gap_on_random_instances():
    gen = stream(66)
    for i in range(200):
        k = int(gen.integers(2, 33))
        p = gen.dirichlet(np.ones(k))
        if i % 3 == 1:
            p[gen.choice(k, size=int(gen.integers(1, k)), replace=False)] = 0.0
        inst = DiscreteInstance(p, gen.random(k), 1.0, float(gen.random()))
        for res in (worst_case_sup(inst), worst_case_inf(inst)):
            assert res.method == "kkt_dual"
            assert 0.0 <= res.certified_gap <= 1e-12
            assert hellinger_to(inst.p.probs, res.maximizer.probs) <= inst.rho + 1e-9


def bisection_steps(p, losses, rho):
    """How many KKT evaluations the oracle's former bisection takes on an instance.

    It grew t = nu - max loss from max d + 1 by doubling until the affinity
    met c, bisected to a relative width of 1e-13 and evaluated the feasible
    end once more; with every max-loss point off-support it first evaluated
    t = 0.  The count is deterministic, so it bounds the Newton search per
    instance without a timer.
    """
    e = rho * rho * (2.0 - rho * rho)
    top = losses >= losses.max()
    if rho == 0.0 or p[~top].sum() <= e:
        return 0
    p_s, d = p[p > 0.0], losses.max() - losses[p > 0.0]

    def deficit(t):
        r = 1.0 / (t + d)
        pr = p_s * r
        s, pr2 = pr.sum(), pr * r
        return float(pr2 @ (float(pr @ d) - d * s) ** 2) / pr2.sum()

    steps = 0
    if not p[top].any():
        steps += 1
        if deficit(0.0) <= e:
            return steps
    lo, hi = 0.0, float(d.max()) + 1.0
    for _ in range(200):
        steps += 1
        if deficit(hi) <= e:
            break
        hi *= 2.0
    for _ in range(300):
        if hi - lo <= 1e-13 * hi:
            break
        mid = 0.5 * (lo + hi)
        steps += 1
        if deficit(mid) > e:
            lo = mid
        else:
            hi = mid
    return steps + 1


def batch_instances(seed, count=200):
    """Instances shaped like the benchmark's oracle batch: k = 2-32, a third
    with points off the support, radii stratified over [0, 0.98)."""
    gen = stream(seed)
    radii = 0.98 * (gen.permutation(count) + gen.random(count)) / count
    for i in range(count):
        k = 2 if i % 10 == 0 else 2 + i % 31
        p = gen.dirichlet(np.ones(k))
        if i % 3 == 1:
            p[gen.choice(k, size=int(gen.integers(1, k)), replace=False)] = 0.0
        yield DiscreteInstance(p, gen.random(k), 1.0, float(radii[i]))


# Beside a max-loss mass of 4e-8 and one of 8e-37, at rho near 1, the
# computed deficit equals 1 - c^2 over a stretch of t far wider than the
# stopping width: a Newton search that keeps probing there overruns.
PLATEAU = DiscreteInstance([8.39450350178218e-37, 0.9999999603825273, 3.961747274683347e-08],
                           [0.25, 0.25, 0.7499999999999999], 1.0, 0.9972491500922974)


@pytest.mark.cpu_bits
def test_root_search_evaluation_budget():
    steps = []
    for inst in [*batch_instances(68), PLATEAU]:
        for sign, solve in ((1.0, worst_case_sup), (-1.0, worst_case_inf)):
            res = solve(inst)
            bound = bisection_steps(inst.p.probs, sign * inst.losses, inst.rho)
            assert res.root_steps <= bound, (inst.to_json(), sign, res.root_steps, bound)
            steps.append(res.root_steps)
    # 1,438 under OpenBLAS's SkylakeX kernels and 1,434-1,440 under the
    # others tried, whose ddot bits steer the search; 1,704-1,732 when every
    # search started at sigma / sqrt(e).
    assert sum(steps) <= 1440


def test_root_steps_zero_on_closed_forms():
    assert worst_case_sup(DiscreteInstance([0.5, 0.5], [0.2, 0.9], 1.0, 0.0)).root_steps == 0
    saturated = worst_case_sup(DiscreteInstance([0.6, 0.3, 0.1], [0.2, 0.5, 0.9], 1.0, 1.0))
    assert saturated.value == 0.9 and saturated.root_steps == 0
    # The off-support boundary form evaluates the KKT point at the max loss once.
    boundary = worst_case_sup(DiscreteInstance([0.5, 0.3, 0.2, 0.0], [0.1, 0.8, 0.3, 0.95], 1.0, 0.5))
    assert boundary.certified_gap == 0.0 and boundary.root_steps == 1


def test_tiny_radii_neither_overflow_nor_stall():
    # Below rho ~ 1e-98 the root t = nu - max loss lies beyond 1e100, where
    # a cube of it leaves the float range; e = 1 - c^2 is subnormal at 1e-160.
    gen = stream(70)
    cases = [([0.5, 0.5], [0.0, 1.0], 1.0, 1e-120), ([0.5, 0.5], [0.0, 1.0], 1.0, 1e-160),
             ([0.5, 0.5], [0.0, 1e6], 1e6, 1e-98)]
    for rho in 10.0 ** -np.arange(12.0, 324.0, 16.0):
        for ceiling in (1.0, 1e6):
            p = gen.dirichlet(np.ones(6))
            p[1] = 0.0
            cases.append((p, ceiling * gen.random(6), ceiling, float(rho)))
    for p, losses, ceiling, rho in cases:
        inst = DiscreteInstance(p, losses, ceiling, rho)
        mean = float(inst.p.probs @ inst.losses)
        for res in (worst_case_sup(inst), worst_case_inf(inst)):
            assert res.root_steps <= 4, (inst.to_json(), res.root_steps)
            assert res.certified_gap <= 3e-14 * ceiling, inst.to_json()
            assert abs(res.value - mean) <= 1e-12 * ceiling, inst.to_json()


def stress_instances():
    """660 instances: rho 1e-12 to 1, ceilings 1 to 1e6, k = 2-29, a third
    off-support and half with Dirichlet(0.05) masses, some far below 1e-30."""
    gen = stream(69)
    j = 0
    for rho in (1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.01, 0.1, 0.3, 0.6, 0.9, 1.0):
        for ceiling in (1.0, 1e2, 1e4, 1e6):
            for _ in range(15):
                k = 2 + j % 28
                p = gen.dirichlet(np.full(k, 0.05 if j % 2 == 0 else 1.0))
                if j % 3 == 1:
                    p[gen.choice(k, size=int(gen.integers(1, k)), replace=False)] = 0.0
                if not p.any():
                    p[0] = 1.0
                yield DiscreteInstance(p, ceiling * gen.random(k), ceiling, rho)
                j += 1


def test_stress_grid_proves_every_solve():
    count = 0
    for inst in stress_instances():
        for res in (worst_case_sup(inst), worst_case_inf(inst)):
            assert hellinger_to(inst.p.probs, res.maximizer.probs) <= inst.rho + 1e-9, inst.to_json()
            assert res.certified_gap <= 3e-14 * inst.ceiling, inst.to_json()
        count += 1
    assert count == 660


def test_split_atoms_match_three_points():
    # Splitting a point into atoms that share its loss and its p-mass leaves
    # the extremum unchanged (Cauchy-Schwarz on the affinity), so a 1000-atom
    # instance must match its 3-point parent, itself checked on the dense grid.
    gen = stream(67)
    for case in range(12):
        p = gen.dirichlet(np.ones(3))
        if case % 3 == 2:
            p[int(gen.integers(3))] = 0.0
            p = p / p.sum()
        losses = gen.random(3)
        rho = float(gen.uniform(0.05, 0.6))
        sizes = np.array([300, 500, 200])
        owner = np.repeat(np.arange(3), sizes)
        share = np.concatenate([gen.dirichlet(np.ones(n)) for n in sizes])
        big = DiscreteInstance(p[owner] * share, losses[owner], 1.0, rho)
        small = DiscreteInstance(p, losses, 1.0, rho)
        assert len(big.p) == 1000
        for solve in (worst_case_sup, worst_case_inf):
            assert solve(big).value == pytest.approx(solve(small).value, abs=1e-9)
        if case < 4:
            assert worst_case_sup(small).value >= dense_grid_sup(p, losses, rho) - 1e-9


def test_tiny_radius_matches_two_point_closed_form():
    # Two-point instances on {0, M} attain the closed-form certificates, so
    # they pin the solve where the ball is tiny and nu - loss is huge.
    for ceiling, rho in ((1.0, 1e-9), (1e3, 1e-7), (1e6, 1e-5)):
        stats = LossStatistics(0.3 * ceiling, 0.21 * ceiling * ceiling, ceiling)
        inst = DiscreteInstance([0.7, 0.3], [0.0, ceiling], ceiling, rho)
        sup, inf = worst_case_sup(inst), worst_case_inf(inst)
        assert sup.value == pytest.approx(upper_bound(stats, rho).bound, rel=1e-12)
        assert inf.value == pytest.approx(lower_bound(stats, rho).bound, rel=1e-12)
        for res in (sup, inf):
            assert res.certified_gap <= 1e-12 * ceiling
            assert hellinger_to(inst.p.probs, res.maximizer.probs) <= rho + 1e-12


def extremal_laws(gen, count):
    """Seeded (E, V, M) with the two-point laws that attain each closed form.

    P_up puts 1 - w on a = E - V / (M - E) and w = V / ((M - E)^2 + V) on M;
    P_down puts V / (E^2 + V) on 0 and the rest on E + V / E.  A seventh of
    the draws each put E near 0, E near M, V near 0 or V near E (M - E).
    """
    for i in range(count):
        ceiling = (0.37, 1.0, 1e6)[i % 3]
        u, v = gen.random(), gen.random()
        edge = 10.0 ** -gen.uniform(1, 8)
        u, v = [(edge, v), (1.0 - edge, v), (u, edge), (u, 1.0 - edge)][i % 7] if i % 7 < 4 else (u, v)
        mean = u * ceiling
        var = v * mean * (ceiling - mean)
        w = var / ((ceiling - mean) ** 2 + var)
        w0 = var / (mean * mean + var)
        up = ([1.0 - w, w], [max(mean - var / (ceiling - mean), 0.0), ceiling])
        down = ([w0, 1.0 - w0], [0.0, min(mean + var / mean, ceiling)])
        yield ceiling, up, down


@pytest.mark.cpu_bits
def test_closed_form_is_attained_at_its_extremal_laws():
    # The closed form is the exact worst case over laws on [0, M] with its
    # (E, V): P_up attains the upper one and P_down the lower, so the oracle
    # pins each from both sides, the certified gap aside.  Beyond the
    # validity radius the point mass at M (or at 0) is in the ball, so the
    # band's trivial bound is attained too.  Both sides are evaluated at the
    # instance's own float moments.  A quarter of the radii lie uniformly
    # below the validity radius, a quarter uniformly beyond it, up to 1, and
    # half within a factor 1e-1 to 1e-12 of it: a quarter below, one in eight
    # at it and one in eight beyond.  Over these 1,600 solves, 600 of them
    # beyond, the worst deviations are 3.0e-16 M on the unsafe side and
    # 4.3e-16 M on the loose one; beyond it they are 0 and 1.2e-26 M.
    gen = stream(2112)
    directions = ((max_valid_radius_upper, 2, worst_case_sup, 1.0),
                  (max_valid_radius_lower, 0, worst_case_inf, -1.0))
    for i, (ceiling, *laws) in enumerate(extremal_laws(gen, 800)):
        x, u = gen.random(), gen.uniform(1, 12)
        tol = 1e-15 * ceiling
        for (probs, losses), (valid_radius, side, solve, sign) in zip(laws, directions):
            inst = DiscreteInstance(probs, losses, ceiling, 0.0)
            stats = LossStatistics(*inst.moments(), ceiling)
            edge = valid_radius(stats)
            near = edge if i % 8 == 3 else min(edge * (1.0 + 10.0**-u), 1.0)
            rho = (edge * x, 1.0 - (1.0 - edge) * x, edge * (1.0 - 10.0**-u), near)[i % 4]
            inst = DiscreteInstance(probs, losses, ceiling, rho)
            res = solve(inst)
            slack = sign * (certificate_band(stats, rho)[side] - res.value)
            assert -tol <= slack <= res.certified_gap + tol, (inst.to_json(), sign)


def test_tiny_mass_on_max_loss_matches_off_support():
    # A max-loss point with p = 1e-30 puts the root within ~1e-15 of the max
    # loss; the value must match the same point taken off-support.
    losses = [0.9, 0.5, 0.1]
    for rho in (0.5, 0.9):
        res = worst_case_sup(DiscreteInstance([1e-30, 0.3, 0.7], losses, 1.0, rho))
        limit = worst_case_sup(DiscreteInstance([0.0, 0.3, 0.7], losses, 1.0, rho))
        assert res.value == pytest.approx(limit.value, abs=1e-12)
        assert res.certified_gap <= 1e-12
        assert hellinger_to([1e-30, 0.3, 0.7], res.maximizer.probs) <= rho + 1e-12


def test_gram_determinant_degenerate_cases():
    gen = stream(64)
    p = DiscreteDistribution(gen.dirichlet(np.ones(5)))
    q = DiscreteDistribution(gen.dirichlet(np.ones(5)))
    f = gen.random(5)
    assert abs(gram_determinant(p, p, f)) < 1e-12  # identical rows
    assert abs(gram_determinant(p, q, np.full(5, 0.7))) < 1e-12  # dependent columns


def test_gram_determinant_psd_sample():
    gen = stream(65)
    for _ in range(500):
        k = int(gen.integers(1, 9))
        p = DiscreteDistribution(gen.dirichlet(np.ones(k)))
        q = DiscreteDistribution(gen.dirichlet(np.ones(k)))
        f = gen.random(k)
        assert gram_determinant(p, q, f) >= -1e-12


@pytest.mark.cpu_bits
def test_largest_difference_is_the_difference_from_the_smallest():
    # max_i fl(a - l_i) = fl(a - min_i l_i), bit for bit, because rounding is
    # monotone; the oracle takes its largest d this way on full support.
    gen = stream(73)
    big = np.finfo(float).max
    pools = (
        np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-310]),  # zeros and subnormals
        np.array([0.0, -0.0, 1.0, 0.5, 1e-300, 0.3]),
        np.array([big, -big, big / 3, -big / 7, 0.0, -0.0, 1e308]),  # spreads near the float maximum
    )
    with np.errstate(over="ignore"):
        for _ in range(3000):
            pool = pools[int(gen.integers(len(pools)))]
            k = int(gen.integers(1, 40))
            l = pool[gen.integers(pool.size, size=k)] * gen.choice([1.0, 0.75, 1.0 - 2.0**-53], size=k)
            a = float(gen.choice([np.maximum.reduce(l), l[int(gen.integers(k))], 0.0, -0.0, big]))
            left = np.maximum.reduce(a - l)
            right = a - np.minimum.reduce(l)
            assert np.float64(left).tobytes() == np.float64(right).tobytes(), (a, l.tolist())


# ----------------------------------------- the solver in its ``@`` form
# Every 1-d product below is ``@``, where the oracle calls ``ndarray.dot``;
# both are the same BLAS ddot, and the test after it holds the oracle to these
# bits.  The formulas (start, KKT evaluation, search) are the oracle's own.
# ROOT_WIDTH is frozen here so that a change to the oracle's shows.

ROOT_WIDTH = 1e-13


def reference_solve_max(p: np.ndarray, losses: np.ndarray, rho: float):
    """Maximize sum q_i loss_i over the Hellinger cap; returns (q, proven gap, root steps)."""
    e = rho * rho * (2.0 - rho * rho)  # 1 - c^2 without cancellation
    if e == 0.0:  # rho = 0, or so small that rho^2 underflows: the ball is {p}
        return p.copy(), 0.0, 0

    # Feasibility of the unconstrained optimum: all mass on the max-loss
    # coordinates, distributed proportionally to p (maximizes affinity).
    # sqrt(top mass) >= c is tested as (mass off the top) <= 1 - c^2.
    lmax = float(losses.max())
    top = losses >= lmax
    off_top = float(p[~top].sum())
    if off_top <= e:
        q = np.where(top, p, 0.0) if p[top].any() else top / top.sum()
        return q / q.sum(), 0.0, 0

    # nu = lmax + t, so nu - loss = t + d is exact on the max-loss points
    # however close to lmax the root lies (a tiny p there puts it very close).
    support = p > 0.0
    p_s = p[support]
    d = lmax - losses[support]

    dmax = float(d.max())

    def kkt_at(t):
        """r = k / (nu - loss), S, k^2 T, 1 - affinity^2 and a Newton step at nu = lmax + t.

        With k = t + max d, r stays near 1 however large t gets, so nothing
        underflows; s, b and t2 below are S, B and T times k, k and k^2.  The
        affinity is S / sqrt(T); its deficit (T - S^2) / T is computed as
        s^2 sum p r^2 (d - b / s)^2 / (t2 k^2) with b = sum p r d (p sums to
        one): deviations from a mean, which keep full relative precision when
        rho is tiny and nu is large.  Its t-derivative is
        -2 sum p r^3 (d - b' / t2)^2 / k^3, with b' = sum p r^2 d, free of
        cancellation the same way.  The step is Newton's on
        h = deficit^-1/2 - e^-1/2, which rises in t and is close to linear,
        since the deficit falls like Var_p(d) / t^2.
        """
        k = t + dmax
        r = t + d
        np.divide(k, r, out=r)
        s = float(p_s @ r)
        pr = p_s * r
        b = float(pr @ d)
        t2 = float(pr @ r)
        pr *= r  # p r^2 from here on, then p r^3: few passes over a million atoms
        dev = d - b / s
        dev *= dev
        deficit = s * s * float(pr @ dev) / t2 / k / k
        np.subtract(d, float(pr @ d) / t2, out=dev)
        dev *= dev
        pr *= r
        slope = float(pr @ dev)
        if slope > 0.0:
            step = deficit * k * k * k * (math.sqrt(deficit / e) - 1.0) / slope
        else:
            step = math.inf  # no usable derivative: the search bisects
        return r, s / k, t2, deficit, step

    steps = 0
    lo = 0.0
    if not p[top].any():
        # Every max-loss point is off-support, so nu = lmax is dual feasible.
        r, s, t2, deficit, _ = kkt_at(0.0)
        steps = 1
        if deficit <= e:
            # g is already non-decreasing at lmax, so g(lmax) is the optimum:
            # the on-support part meets the affinity exactly and the leftover
            # mass goes to one off-support max-loss point.
            left = (e - deficit) / (1.0 - deficit)
            q = np.zeros_like(p)
            q[support] = (1.0 - left) * p_s * r * r / t2
            q[int(np.argmax(top))] = left
            return q, 0.0, steps

    # Safeguarded Newton inside the bracket [lo, hi], hi always feasible.  The
    # Newton step from the newest point aims a quarter of the stopping width
    # beyond the root, on the feasible side, so that a converged step lands
    # feasible instead of within rounding of the root.  It is taken when it
    # stays inside the bracket and moves at most half as far as the move
    # before last; otherwise the step doubles t until a feasible point is
    # known, then takes the geometric midpoint (from hi * 2^-64 while lo is
    # 0).  The search ends when the bracket is within the stopping width, or
    # at a feasible point near the root (deficit above e / 2) whose Newton
    # step is within half of it.  The start is the smaller of the two ends'
    # estimates of the root above dmax * 2^-64: t_a from the large-t line
    # h = (t + mu + k3 / var) / sigma, t_b from h(0) = (mass off the max
    # loss)^-1/2 at slope 1 / sigma; else sigma / sqrt(e).
    mean = float(p_s @ d)
    dev = d - mean
    sq = dev * dev
    var = float(p_s @ sq)
    sigma = math.sqrt(var)
    t = sigma / math.sqrt(e) or dmax
    tiny = dmax * 2.0**-64
    starts = []
    if var > 0.0:
        sq *= dev
        starts.append(t - mean - float(p_s @ sq) / var)
    if p[top].any():
        starts.append(t - sigma / math.sqrt(off_top))
    t = min((x for x in starts if x > tiny), default=t)
    hi, at_hi = math.inf, None
    before_last = last = math.inf
    while steps < 300:
        point = kkt_at(t)
        steps += 1
        deficit, step = point[3], point[4]
        if deficit <= e:
            hi, at_hi = t, point
            if deficit >= 0.5 * e and abs(step) <= 0.5 * ROOT_WIDTH * t:
                break
        else:
            lo = t
        if hi < math.inf and hi - lo <= ROOT_WIDTH * hi:
            break
        x = (t + step) * (1.0 + 0.25 * ROOT_WIDTH)
        if not (lo < x < hi and abs(x - t) <= 0.5 * before_last):
            x = 2.0 * t if hi == math.inf else math.sqrt(max(lo, hi * 2.0**-64)) * math.sqrt(hi)
        before_last, last = last, abs(x - t)
        t = x
    if at_hi is None:
        return p.copy(), math.inf, steps

    # Primal at the feasible end; g(nu) - E_q[loss] = S/T - c^2/S equals
    # (1 - c^2 - deficit) / S, evaluated without cancelling nu against itself.
    r, s, t2, deficit, _ = at_hi
    q = np.zeros_like(p)
    q[support] = p_s * r * r / t2
    return q, max((e - deficit) / s, 0.0), steps


def reference_instances():
    """Instances on k = 1-64 points: Dirichlet masses, some points off the
    support, tied maximum losses, and tied maxima all off the support (the
    boundary form); radii 0, 1e-9, 1, a random one and the feasibility edge
    of each direction with its two float neighbours for the sup.  Then the
    cases the oracle's loss range and support flag must get right: -0.0 and
    0.0 tied at the smallest loss (the inf's largest) and at every loss, the
    smallest loss on a p_i = 0 point, and constant losses."""
    gen = stream(71)

    def at_radii(p, losses):
        probs = DiscreteDistribution(p).probs
        radii = {0.0, 1e-9, 1.0, float(gen.random())}
        for sign in (1.0, -1.0):
            top = sign * losses >= (sign * losses).max()
            edge = math.sqrt(1.0 - math.sqrt(max(1.0 - float(probs[~top].sum()), 0.0)))
            radii.add(edge)
            if sign > 0.0:
                radii.update(math.nextafter(edge, x) for x in (0.0, 1.0))
        for rho in sorted(radii):
            yield DiscreteInstance(p, losses, 1.0, rho)

    for k in range(1, 65):
        for variant in range(4):
            p = gen.dirichlet(np.full(k, 0.3 if variant == 0 else 1.0))
            losses = gen.random(k)
            ties = gen.choice(k, size=1 + k // 4, replace=False)
            if variant >= 2:
                losses[ties] = losses.max()
            if variant == 1 and k > 1:
                p[gen.choice(k, size=int(gen.integers(1, k)), replace=False)] = 0.0
            if variant == 3 and ties.size < k:
                p[ties] = 0.0
            yield from at_radii(p, losses)
    for k in (2, 5, 16):
        p = gen.dirichlet(np.ones(k))
        zeros = np.where(gen.random(k) < 0.5, -0.0, 0.0)
        zeros[:2] = -0.0, 0.0
        losses = gen.random(k)
        losses[: max(2, k // 3)] = zeros[: max(2, k // 3)]
        yield from at_radii(p, losses)  # -0.0 and 0.0 tied at the smallest loss
        yield from at_radii(p, zeros)  # and at the largest
        yield from at_radii(p, np.full(k, float(gen.random())))
        p[0] = 0.0
        losses = 0.25 + 0.75 * gen.random(k)
        losses[0] = 0.0  # the smallest loss alone, off the support
        yield from at_radii(p, losses)
    big = stream(72)
    p = big.dirichlet(np.ones(100_000))
    p[big.choice(100_000, size=1000, replace=False)] = 0.0
    yield DiscreteInstance(p, big.random(100_000), 1.0, 0.1)
    yield PLATEAU


@pytest.mark.cpu_bits
def test_solver_matches_its_matmul_form_bit_for_bit():
    steps_seen = set()
    overflowed = 0
    for inst in reference_instances():
        for sign, solve in ((1.0, worst_case_sup), (-1.0, worst_case_inf)):
            where = (inst.to_json()[:200], sign)
            try:
                with np.errstate(all="raise"):
                    q, gap, steps = reference_solve_max(inst.p.probs, sign * inst.losses, inst.rho)
            except FloatingPointError:
                # Radii at or one float below the computed feasibility edge
                # drive the former search into overflow (some of them to an
                # all-zero extremizer); the oracle stops at its last feasible
                # point instead, with a proven gap.
                res = solve(inst)
                assert res.certified_gap <= GAP_TOL, where
                assert hellinger_to(inst.p.probs, res.maximizer.probs) <= inst.rho + 1e-12, where
                overflowed += 1
                continue
            probs = DiscreteDistribution(q).probs
            value = float((probs * inst.losses).sum())
            value = min(max(value, float(inst.losses.min())), float(inst.losses.max()))
            res = solve(inst)
            assert np.array([res.value, res.certified_gap]).tobytes() == np.array([value, gap]).tobytes(), where
            assert res.maximizer.probs.tobytes() == probs.tobytes(), where
            assert res.root_steps == steps, where
            steps_seen.add(min(steps, 2))
    assert steps_seen == {0, 1, 2}  # closed forms, the boundary form and the search all ran
    assert overflowed > 0  # the feasibility edge is still exercised
