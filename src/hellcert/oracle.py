"""Exact worst-case expected loss over Hellinger balls on finite supports.

For a discrete base distribution p and per-point losses, the ball constraint
H(p, q) <= rho becomes linear after the substitution u_i = sqrt(q_i):

    maximize sum_i loss_i u_i^2   over  ||u||_2 = 1,  <sqrt(p), u> >= c,

with c = 1 - rho^2 (u >= 0 may be dropped: |u| does at least as well).
Weak duality bounds the maximum, for every nu >= max_i loss_i, by

    g(nu) = nu - c^2 / S(nu),   S(nu) = sum_i p_i / (nu - loss_i),

and g'(nu) = 0 exactly where the KKT family u_i ~ sqrt(p_i) / (nu - loss_i)
has affinity <sqrt(p), u> = c.  One root search on nu therefore yields both
a feasible primal (taken at the feasible end of the bracket) and a proven
optimality gap g(nu) - primal.  The search is a safeguarded Newton iteration
on deficit^-1/2 - (1 - c^2)^-1/2, with deficit = 1 - affinity^2, started at
the smaller of two estimates of the root, one from each end of that curve,
and kept inside a bracket whose upper end is always feasible; it bisects
whenever a Newton step would leave the bracket or stops shrinking.  It
stops on the feasible side within the same relative width 1e-13 of the root
as plain bisection does, after about 4.5 evaluations where bisection takes
about 50 on the benchmark's seed-1 oracle round (3.3 per solve with the
closed forms included); ``OracleResult.root_steps`` counts them.  One
evaluation is 15 NumPy passes over the support.  Points with p_i = 0 only
constrain nu: they receive mass only when the affinity already
meets c at nu = max loss, where the optimum is in closed form.  A radius
at the feasibility edge puts the root at nu -> max loss, where the KKT
family leaves the float range; the first non-finite evaluation there ends
the search at the feasible end of the bracket.  An instance whose proven
gap exceeds ``GAP_TOL`` times its ceiling M is raised with the instance
attached rather than returned: the gap is in loss units, and the problem
scales with M.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .shifts import DiscreteDistribution

__all__ = [
    "DiscreteInstance",
    "OracleResult",
    "OracleGapError",
    "worst_case_sup",
    "worst_case_inf",
]

GAP_TOL = 1e-6  # largest proven gap returned, relative to the ceiling M
ROOT_WIDTH = 1e-13  # stopping width of the root bracket, relative to its feasible end


class OracleGapError(RuntimeError):
    """The proven duality gap exceeds ``GAP_TOL`` times the ceiling M; instance attached."""

    def __init__(self, instance: "DiscreteInstance", gap: float):
        super().__init__(
            f"oracle duality gap {gap:.17g} exceeds {GAP_TOL:g} times M = {instance.ceiling!r} "
            f"on instance {instance.to_json()}"
        )
        self.instance = instance
        self.gap = gap


@dataclass(frozen=True)
class DiscreteInstance:
    """A discrete worst-case problem: base distribution, losses, ceiling and radius."""

    p: DiscreteDistribution
    losses: np.ndarray
    ceiling: float
    rho: float
    loss_range: tuple[float, float] = field(init=False, repr=False, compare=False)  # (min, max)
    on_support: bool = field(init=False, repr=False, compare=False)  # every p_i > 0

    def __init__(self, p, losses, ceiling: float, rho: float):
        if not isinstance(p, DiscreteDistribution):
            p = DiscreteDistribution(p)
        losses = np.asarray(losses, dtype=float)
        if losses.shape != (len(p),):
            raise ValueError("losses must match the support size")
        if not (ceiling > 0 and math.isfinite(ceiling)):
            raise ValueError(f"ceiling must be positive and finite, got {ceiling}")
        low, high = float(np.minimum.reduce(losses)), float(np.maximum.reduce(losses))
        if not (low >= 0.0 and high <= ceiling):  # False on NaN as well
            raise ValueError(f"losses must lie in [0, {ceiling}]")
        if not (0.0 <= rho <= 1.0):
            raise ValueError(f"rho must lie in [0, 1], got {rho}")
        losses = losses.copy()
        losses.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "ceiling", float(ceiling))
        object.__setattr__(self, "rho", float(rho))
        object.__setattr__(self, "loss_range", (low, high))
        object.__setattr__(self, "on_support", bool(np.minimum.reduce(p.probs) > 0.0))

    def moments(self) -> tuple[float, float]:
        """Mean and variance of the losses under p, summed by ``np.add.reduce``, not BLAS.

        The mean is clamped into [min loss, max loss], where the exact mean
        lies: with every loss at M, rounding can otherwise put it above M.
        """
        p, losses = self.p.probs, self.losses
        low, high = self.loss_range
        mean = min(max(float(np.add.reduce(p * losses)), low), high)
        dev = losses - mean
        return mean, float(np.add.reduce(p * (dev * dev)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": [float(x) for x in self.p.probs],
                "losses": [float(x) for x in self.losses],
                "M": self.ceiling,
                "rho": self.rho,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DiscreteInstance":
        obj = json.loads(text)
        for key in ("p", "losses", "M", "rho"):
            value = obj[key]
            for x in value if isinstance(value, list) else [value]:
                if type(x) not in (int, float):  # booleans, strings, null and lists are not numbers
                    raise ValueError(f"{key}: {json.dumps(x)} is not a number")
        return cls(p=obj["p"], losses=obj["losses"], ceiling=obj["M"], rho=obj["rho"])


@dataclass(frozen=True)
class OracleResult:
    value: float
    maximizer: DiscreteDistribution
    method: str  # "kkt_dual"
    certified_gap: float  # proven bound on (true extremum - value), in loss units
    root_steps: int  # KKT evaluations made; 0 on the closed forms that need none


def _solve_max(p: np.ndarray, losses: np.ndarray, rho: float, lmax: float, lmin: float,
               on_support: bool):
    """Maximize sum q_i loss_i over the Hellinger cap; returns (q, proven gap, root steps).

    ``lmax`` and ``lmin`` are the largest and smallest loss, and
    ``on_support`` says whether every p_i > 0; the instance holds all three.

    Instances are small, so a solve costs NumPy calls rather than arithmetic.
    Every 1-d product is ``ndarray.dot``: the same BLAS ddot as ``@``, which
    pays more per call.  ``test_oracle.py`` keeps the ``@`` form as a
    reference and checks that both give the same bits wherever the
    reference stays inside the float range.

    Every reduction on this path, and in ``_sign_solve`` and
    ``DiscreteDistribution``, calls the ufunc's ``reduce`` (``np.add.reduce``,
    ``np.maximum.reduce``, ``np.minimum.reduce``), never the ndarray method
    (``.sum()``, ``.max()``, ``.any()``), whose Python wrapper adds about a
    microsecond at a few dozen points; the bits are the same.  A value the
    instance already holds is read, not reduced again: the loss range (its
    negation for the inf, which is exact) and the full-support flag.  On full
    support the largest d is lmax - lmin, with the same bits as its reduction,
    since rounding is monotone: max_i fl(lmax - l_i) = fl(lmax - min_i l_i).
    Off the support d covers the support only, so its max is still reduced.
    With every p_i > 0 the support needs no boolean compress.  The sums that
    remain (the mass off the top, the maximizer's normalization, the reported
    value) depend on their order, so nothing held elsewhere can stand in for
    them.
    On the benchmark's seed-1 oracle round (2-core AVX-512 box, Python
    3.11.7, NumPy 2.4.6) a sup+inf operation spends about 70 us in its 6.68
    KKT evaluations; everything else took about 63 us and takes about 53 us
    with the values read from the instance, so the KKT share of its CPU rose
    from 53% to 57%.
    """
    e = rho * rho * (2.0 - rho * rho)  # 1 - c^2 without cancellation
    if e == 0.0:  # rho = 0, or so small that rho^2 underflows: the ball is {p}
        return p.copy(), 0.0, 0

    # Feasibility of the unconstrained optimum: all mass on the max-loss
    # coordinates, distributed proportionally to p (maximizes affinity).
    # sqrt(top mass) >= c is tested as (mass off the top) <= 1 - c^2.
    top = losses >= lmax
    top_on_support = on_support or np.maximum.reduce(p[top]) > 0.0
    off_top = float(np.add.reduce(p[~top]))
    if off_top <= e:
        q = np.where(top, p, 0.0) if top_on_support else top / np.add.reduce(top)
        return q / np.add.reduce(q), 0.0, 0

    # nu = lmax + t, so nu - loss = t + d is exact on the max-loss points
    # however close to lmax the root lies (a tiny p there puts it very close).
    if on_support:
        p_s, d = p, lmax - losses
        dmax = lmax - lmin
    else:
        support = p > 0.0
        p_s = p[support]
        d = lmax - losses[support]
        dmax = float(np.maximum.reduce(d))

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
        s = float(p_s.dot(r))
        pr = p_s * r
        b = float(pr.dot(d))
        t2 = float(pr.dot(r))
        pr *= r  # p r^2 from here on, then p r^3: few passes over a million atoms
        dev = d - b / s
        dev *= dev
        deficit = s * s * float(pr.dot(dev)) / t2 / k / k
        np.subtract(d, float(pr.dot(d)) / t2, out=dev)
        dev *= dev
        pr *= r
        slope = float(pr.dot(dev))
        if slope > 0.0:
            step = deficit * k * k * k * (math.sqrt(deficit / e) - 1.0) / slope
        else:
            step = math.inf  # no usable derivative: the search bisects
        return r, s / k, t2, deficit, step

    steps = 0
    lo = 0.0
    if not top_on_support:
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
    # step is within half of it.  Below t = dmax * 2^-64, r ~ dmax / t and
    # its powers can leave the float range (a root at the feasibility edge
    # lies at t -> 0): there the first evaluation with a non-finite S, T or
    # deficit counts as a step and ends the search at hi.
    #
    # The search starts from whichever end of h(t) = deficit^-1/2 gives the
    # smaller t above that limit.  For large t, h = (t + mu + k3 / var) / sigma
    # + O(1/t), with mu, var = sigma^2 and k3 the mean, variance and third
    # central moment of d under p, so h reaches e^-1/2 near
    # t_a = sigma / sqrt(e) - mu - k3 / var.  With a max-loss point on
    # the support, h(0) = m^-1/2 for the mass m off the max loss, and the line
    # from there at the asymptotic slope 1 / sigma reaches e^-1/2 at
    # t_b = sigma (e^-1/2 - m^-1/2).  Without either, it starts at
    # t = sigma / sqrt(e), the small-radius root.
    mean = float(p_s.dot(d))
    dev = d - mean
    sq = dev * dev
    var = float(p_s.dot(sq))
    sigma = math.sqrt(var)
    t = sigma / math.sqrt(e) or dmax
    tiny = dmax * 2.0**-64
    starts = []
    if var > 0.0:
        sq *= dev
        starts.append(t - mean - float(p_s.dot(sq)) / var)
    if top_on_support:
        starts.append(t - sigma / math.sqrt(off_top))
    t = min((x for x in starts if x > tiny), default=t)
    hi, at_hi = math.inf, None
    before_last = last = math.inf
    while steps < 300:
        if t < tiny:
            with np.errstate(all="ignore"):
                point = kkt_at(t)
        else:
            point = kkt_at(t)
        steps += 1
        if t < tiny and not all(map(math.isfinite, point[1:4])):
            break
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
    if on_support:
        q = p * r
        q *= r
        q /= t2
    else:
        q = np.zeros_like(p)
        q[support] = p_s * r * r / t2
    return q, max((e - deficit) / s, 0.0), steps


def _sign_solve(inst: DiscreteInstance, sign: float) -> OracleResult:
    low, high = inst.loss_range
    if sign > 0.0:
        q, gap, steps = _solve_max(inst.p.probs, inst.losses, inst.rho, high, low, inst.on_support)
    else:
        q, gap, steps = _solve_max(inst.p.probs, -inst.losses, inst.rho, -low, -high, inst.on_support)
    if gap > GAP_TOL * inst.ceiling:
        raise OracleGapError(inst, gap)
    maximizer = DiscreteDistribution._normalized(q)
    # Report the expectation under the (renormalized) extremizer, clamped into
    # the loss range, where the exact one lies: with every loss at M, the
    # masses' rounded sum can otherwise put it above M.
    value = min(max(float(np.add.reduce(maximizer.probs * inst.losses)), low), high)
    return OracleResult(value=value, maximizer=maximizer, method="kkt_dual", certified_gap=gap,
                        root_steps=steps)


def worst_case_sup(inst: DiscreteInstance) -> OracleResult:
    """Exact sup of E_q[loss] over the radius-rho Hellinger ball around p."""
    return _sign_solve(inst, +1.0)


def worst_case_inf(inst: DiscreteInstance) -> OracleResult:
    """Exact inf of E_q[loss] over the ball; same machinery applied to -loss."""
    return _sign_solve(inst, -1.0)

