"""Tests of the benchmark's own parts: scaling arithmetic, the tail rule and
the independent checkers, each against brute force on small inputs.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import hostclock  # noqa: E402
import tracing  # noqa: E402


def test_normalize_rescales_to_nominal_speed():
    # The host ran the kernel at half the nominal speed, so 0.9 s of the
    # operation's own time count as 0.45 nominal seconds.
    assert hostclock.normalize(0.9, ref_s=0.4, nominal_s=0.2) == pytest.approx(0.45)
    assert hostclock.normalize(2.0, ref_s=0.2, nominal_s=0.2) == 2.0
    with pytest.raises(ValueError):
        hostclock.normalize(1.0, ref_s=0.0, nominal_s=0.2)


class _Child:
    cpu_s = 0.5


def test_time_call_counts_own_and_child_cpu_time():
    with hostclock.Probe(hostclock.KERNELS) as probe:
        for kernel, (_, nominal) in hostclock.KERNELS.items():
            _, scaled, raw, ref = probe.time_call(kernel, sum, range(200000))
            assert ref > 0.0 and 0.0 < scaled < raw * nominal / ref * 1.5
            _, scaled, _, ref = probe.time_call(kernel, _Child)
            assert scaled >= 0.5 * nominal / ref


def test_no_tail_under_forty_samples():
    for n in range(40):
        assert hostclock.tail_percentile(n) is None
    assert hostclock.tail_percentile(40) == (75, 29)
    assert hostclock.tail_percentile(200) == (95, 189)


def test_tail_is_highest_percentile_with_ten_beyond():
    for n in range(40, 1200, 7):
        p, idx = hostclock.tail_percentile(n)
        assert n - (idx + 1) >= 10
        assert n - math.ceil((p + 1) * n / 100) < 10 or p == 99
        values = list(range(n))
        assert hostclock.nearest_rank(values, p) == values[idx]


def test_mann_whitney_matches_all_pairs_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        scores = rng.integers(0, 5, size=n).astype(float)  # many ties
        labels = rng.choice([-1, 1], size=n)
        labels[:2] = [1, -1]
        pos, neg = scores[labels == 1], scores[labels == -1]
        wins = sum(p >= q for p, q in itertools.product(pos, neg))
        assert checks.mann_whitney_auc(scores, labels) == wins / (pos.size * neg.size)


def test_two_point_closed_form_matches_dense_grid():
    rng = np.random.default_rng(1)
    q2 = np.linspace(0.0, 1.0, 400001)
    for case in range(60):
        p2 = 0.0 if case % 10 == 0 else float(rng.random())
        l1, l2 = rng.random(2)
        rho = float(rng.random())
        affinity = np.sqrt((1.0 - p2) * (1.0 - q2)) + np.sqrt(p2 * q2)
        feasible = q2[affinity >= 1.0 - rho * rho]
        values = l1 + (l2 - l1) * feasible
        lo, hi = checks.two_point_extremes(p2, l1, l2, rho)
        assert lo == pytest.approx(values.min(), abs=1e-4)
        assert hi == pytest.approx(values.max(), abs=1e-4)


def test_closed_form_band_encloses_two_point_extremes():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p2, rho = float(rng.random()), float(rng.random())
        l1, l2 = rng.random(2)
        mean = (1 - p2) * l1 + p2 * l2
        var = (1 - p2) * (l1 - mean) ** 2 + p2 * (l2 - mean) ** 2
        lower, upper = checks.closed_form_band(mean, var, 1.0, rho)
        lo, hi = checks.two_point_extremes(p2, l1, l2, rho)
        assert lower - 1e-9 <= lo and hi <= upper + 1e-9


def test_sample_moments_match_definitions():
    x = np.random.default_rng(3).random(101)
    n, mean, var = checks.sample_moments(x)
    assert n == 101
    assert mean == pytest.approx(sum(x) / 101, rel=1e-14)
    assert var == pytest.approx(sum((v - mean) ** 2 for v in x) / 100, rel=1e-12)


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}
