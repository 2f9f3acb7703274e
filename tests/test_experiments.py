import math

import numpy as np
import pytest

from hellcert.bounds import LossStatistics
from hellcert.experiments import (
    certificate_band,
    certificate_curve,
    label_shift_experiment,
    mixture_experiment,
)
from hellcert.rng import stream
from hellcert.shifts import DiscreteDistribution, discrete_hellinger


def synthetic_predictions(seed=5, n=4000, k=10):
    gen = stream(seed)
    labels = gen.integers(0, k, size=n)
    wrong = gen.random(n) < labels / 20.0  # class-dependent error rates
    preds = np.where(wrong, (labels + 1) % k, labels)
    return preds, labels


def test_certificate_band_fallbacks():
    stats = LossStatistics(0.1, 0.09, 1.0)
    lo, lo_triv, up, up_triv = certificate_band(stats, 0.05)
    assert not up_triv and not lo_triv
    assert lo <= 0.1 <= up
    # Beyond the (small) lower validity radius only the trivial 0 remains.
    lo, lo_triv, up, up_triv = certificate_band(stats, 0.5)
    assert lo == 0.0 and lo_triv
    assert not up_triv
    # Beyond the upper validity radius too.
    lo, lo_triv, up, up_triv = certificate_band(stats, 0.95)
    assert up == 1.0 and up_triv


def test_certificate_curve_shape():
    curve = certificate_curve(LossStatistics(0.2, 0.16, 1.0), 50)
    assert len(curve) == 50
    assert curve[0][0] == 0.0 and curve[-1][0] == 1.0
    assert curve[0][1] == pytest.approx(0.2) and curve[0][3] == pytest.approx(0.2)


def test_label_shift_identity_and_worst_case():
    preds, labels = synthetic_predictions()
    res = label_shift_experiment(preds, labels, trials=9, seed=1)
    # Identity shift: distance 0, loss = overall empirical loss.
    pad = DiscreteDistribution(np.concatenate([res.class_priors, np.zeros(2)]))
    assert discrete_hellinger(pad, pad) == 0.0
    # All mass on an unseen class: distance 1, loss = ceiling.
    worst = DiscreteDistribution(
        np.concatenate([np.zeros_like(res.class_priors), [1.0, 0.0]])
    )
    assert discrete_hellinger(pad, worst) == pytest.approx(1.0, abs=1e-12)
    lo, _, up, _ = certificate_band(res.stats, 1.0)
    assert lo <= res.stats.ceiling <= up + 1e-12


def test_label_shift_every_point_contained():
    preds, labels = synthetic_predictions()
    res = label_shift_experiment(preds, labels, trials=600, seed=2)
    assert len(res.points) == 600
    mechanisms = {p.mechanism for p in res.points}
    assert mechanisms == {"dirichlet_resample", "class_removal", "unseen_classes"}
    for pt in res.points:
        lo, _, up, _ = certificate_band(res.stats, pt.hellinger)
        assert lo - 1e-9 <= pt.loss <= up + 1e-9


def test_label_shift_deterministic():
    preds, labels = synthetic_predictions()
    a = label_shift_experiment(preds, labels, trials=60, seed=3)
    b = label_shift_experiment(preds, labels, trials=60, seed=3)
    assert [(p.hellinger, p.loss) for p in a.points] == [
        (p.hellinger, p.loss) for p in b.points
    ]


def test_mixture_edge_cells():
    cells = mixture_experiment([1.0, 0.0], seed=7, n_samples=500)
    pure_p, pure_q = cells
    assert pure_p.hellinger == 0.0
    assert pure_p.loss_exact == 0.0
    assert pure_p.loss_sampled == 0.0  # classifier perfect on P
    assert pure_p.auc_estimate == 1.0
    assert pure_q.hellinger == 1.0
    assert pure_q.loss_exact == 1.0
    assert pure_q.loss_sampled == 1.0


def test_mixture_cells_contained_and_sampled_close():
    grid = np.round(np.arange(0.1, 1.0, 0.1), 10)
    cells = mixture_experiment(grid, seed=8, n_samples=4000)
    for c in cells:
        assert c.loss_lower_cert - 1e-9 <= c.loss_exact <= c.loss_upper_cert + 1e-9
        assert c.auc_lower_cert - 1e-9 <= c.auc_estimate <= c.auc_upper_cert + 1e-9
        se = math.sqrt(max(c.loss_exact * (1 - c.loss_exact), 1e-12) / c.n)
        assert abs(c.loss_sampled - c.loss_exact) <= 3 * se + 1e-9


def test_mixture_upper_cert_is_one_minus_gamma():
    cells = mixture_experiment([0.25], seed=9, n_samples=100)
    assert cells[0].loss_upper_cert == pytest.approx(0.75, abs=1e-12)
    assert cells[0].auc_lower_cert == pytest.approx(0.0625, abs=1e-12)


def test_mixture_rejects_bad_gamma():
    with pytest.raises(ValueError):
        mixture_experiment([1.2], seed=0, n_samples=10)
