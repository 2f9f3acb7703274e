import math
from pathlib import Path

import numpy as np
import pytest

from hellcert import experiments
from hellcert.bounds import LossStatistics, certificate_band
from hellcert.experiments import certificate_curve, label_shift_experiment, mixture_experiment
from hellcert.rng import rekeyed_stream, stream
from hellcert.shifts import DiscreteDistribution, discrete_hellinger
from test_imports import fresh


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


def test_certificate_curve_shape(monkeypatch):
    monkeypatch.setattr(experiments, "CURVE_POINTS", 50)
    curve = certificate_curve(LossStatistics(0.2, 0.16, 1.0))
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


def test_label_shift_without_unseen_classes_resamples_their_trials():
    # With no unseen class to take mass, every third trial resamples by
    # Dirichlet instead of sitting at the base distribution.
    preds, labels = synthetic_predictions()
    res = label_shift_experiment(preds, labels, trials=30, seed=4, unseen_classes=0)
    assert [p.mechanism for p in res.points[2::3]] == ["dirichlet_resample"] * 10
    assert all(p.hellinger > 0.0 for p in res.points)


@pytest.mark.parametrize("concentration", [math.inf, math.nan])
def test_label_shift_trial_that_is_no_law_raises(concentration):
    # Dirichlet draws at an infinite or NaN concentration are NaN: the block check catches them.
    preds, labels = synthetic_predictions()
    with pytest.raises(ValueError, match="probs must be finite"):
        label_shift_experiment(preds, labels, trials=3, seed=1, dirichlet_concentration=concentration)


def test_label_shift_deterministic():
    preds, labels = synthetic_predictions()
    a = label_shift_experiment(preds, labels, trials=60, seed=3)
    b = label_shift_experiment(preds, labels, trials=60, seed=3)
    assert [(p.hellinger, p.loss) for p in a.points] == [
        (p.hellinger, p.loss) for p in b.points
    ]


def per_trial_label_shift(predictions, labels, trials, seed, unseen_classes, dirichlet_concentration):
    """Reference: (hellinger, loss, mechanism) per trial from the per-trial loop the blocks replaced.

    Each trial builds its own ``stream(seed, t)``, ``DiscreteDistribution`` and
    padded vectors.  Its two sums are the library's formula, ``np.add.reduce``
    of the products, on the trial's own vectors.
    """
    classes, counts = np.unique(labels, return_counts=True)
    k = classes.size
    priors = counts / counts.sum()
    wrong = (predictions != labels).astype(float)
    # Each class's losses in file order, by a stable sort: one mask per class costs O(k n).
    by_class = np.split(wrong[np.argsort(labels, kind="stable")], np.cumsum(counts)[:-1])
    cond_loss = np.array([class_wrong.mean() for class_wrong in by_class])
    padded_prior = DiscreteDistribution(np.concatenate([priors, np.zeros(unseen_classes)]))
    points = []
    for t in range(trials):
        gen = stream(seed, t)
        mech = ("dirichlet_resample", "class_removal", "unseen_classes")[t % 3]
        if mech == "unseen_classes" and unseen_classes == 0:
            mech = "dirichlet_resample"
        if mech == "dirichlet_resample":
            q_existing = gen.dirichlet(dirichlet_concentration * priors)
            q_unseen = np.zeros(unseen_classes)
        elif mech == "class_removal":
            n_remove = int(gen.integers(1, k))
            removed = gen.choice(k, size=n_remove, replace=False)
            q_existing = priors.copy()
            q_existing[removed] = 0.0
            q_existing = q_existing / q_existing.sum()
            q_unseen = np.zeros(unseen_classes)
        else:
            moved = float(gen.uniform(0.0, 1.0))
            q_unseen = moved * gen.dirichlet(np.ones(unseen_classes))
            q_existing = (1.0 - moved) * priors
        q = DiscreteDistribution(np.concatenate([q_existing, q_unseen]))
        pv, qv = np.zeros(len(q)), np.zeros(len(q))
        pv[:] = padded_prior.probs
        qv[:] = q.probs
        d = np.sqrt(pv) - np.sqrt(qv)
        h = min(float(np.sqrt(np.add.reduce(d * d)) / math.sqrt(2.0)), 1.0)
        loss = float(np.add.reduce(q.probs[:k] * cond_loss) + q.probs[k:].sum())
        points.append((h, loss, mech))
    return points


@pytest.fixture(scope="module")
def label_shift_data():
    """k -> (predictions, labels) in which each of the k classes occurs."""
    data = {k: synthetic_predictions(seed=k, n=max(400, 30 * k), k=k) for k in (2, 7, 1000, 10_001)}
    assert all(np.unique(labels).size == k for k, (_, labels) in data.items())
    return data


@pytest.mark.parametrize("k", [2, 7, 1000])
@pytest.mark.parametrize("unseen", [0, 2])
@pytest.mark.parametrize("trials", [1, 3, "block-1", "block+1", 2500])
@pytest.mark.parametrize("concentration", [10.0, 0.05])
@pytest.mark.cpu_bits
def test_label_shift_points_match_the_per_trial_loop_bit_for_bit(monkeypatch, label_shift_data, k, unseen, trials,
                                                                 concentration):
    m = k + unseen
    rows = experiments._BLOCK_BYTES // (8 * m)
    if rows > 2500:  # small k: 128-row blocks, so that 2,500 trials cross many block edges
        monkeypatch.setattr(experiments, "_BLOCK_BYTES", 128 * 8 * m)
        rows = 128
    if isinstance(trials, str):
        trials = rows + int(trials[-2:])
    preds, labels = label_shift_data[k]
    seed = 7 + k + unseen
    res = label_shift_experiment(preds, labels, trials=trials, seed=seed, unseen_classes=unseen,
                                 dirichlet_concentration=concentration)
    got = [(p.hellinger, p.loss, p.mechanism) for p in res.points]
    assert got == per_trial_label_shift(preds, labels, trials, seed, unseen, concentration)


@pytest.mark.cpu_bits
def test_label_shift_points_match_the_per_trial_loop_beyond_10000_classes(label_shift_data):
    """Beyond 10,000 classes NumPy's shuffle changes which set a class-removal trial removes."""
    preds, labels = label_shift_data[10_001]
    res = label_shift_experiment(preds, labels, trials=2500, seed=7, unseen_classes=2, dirichlet_concentration=0.05)
    got = [(p.hellinger, p.loss, p.mechanism) for p in res.points]
    assert got == per_trial_label_shift(preds, labels, 2500, 7, 2, 0.05)


def test_label_shift_without_trials_gives_an_empty_scatter_and_the_curve():
    preds, labels = synthetic_predictions()
    res = label_shift_experiment(preds, labels, trials=0, seed=1)
    assert res.points == [] and res.hellinger.shape == res.loss.shape == (0,)
    assert res.curve == label_shift_experiment(preds, labels, trials=1, seed=1).curve


@pytest.mark.cpu_bits
def test_label_shift_scatter_is_byte_identical_under_every_blas_kernel(tmp_path, label_shift_data):
    """No scatter number passes through BLAS, whose kernels round sums differently.

    OPENBLAS_CORETYPE picks the kernel; SkylakeX's needs AVX-512.
    """
    preds, labels = label_shift_data[1000]
    (tmp_path / "preds.csv").write_text("pred,label\n" + "".join(f"{p},{y}\n" for p, y in zip(preds, labels)))
    cpuinfo = Path("/proc/cpuinfo")
    flags = cpuinfo.read_text().split() if cpuinfo.exists() else []
    scatters = {}
    for coretype in ("", "Haswell", "Prescott", *(["SkylakeX"] * ("avx512f" in flags))):
        fresh("import sys; from hellcert.cli import main; sys.exit(main(sys.argv[1:]))",
              "label-shift", "--dataset", "preds.csv", "--trials", "3000", "--seed", "3",
              "--scatter-csv", "scatter.csv", "--curve-csv", "curve.csv", "--output", "report.json",
              cwd=tmp_path, **({"OPENBLAS_CORETYPE": coretype} if coretype else {}))
        scatters[coretype or "default"] = (tmp_path / "scatter.csv").read_bytes()
    assert len(scatters["default"].splitlines()) == 3001
    assert {name for name, data in scatters.items() if data != scatters["default"]} == set()


def _experiment_draws(gen, t):
    """Every draw the label-shift trials make, then an odd count of 32-bit integers.

    The last draw leaves half of a 32-bit buffer unused for the next index, and
    the draws before it leave the 64-bit buffer at varying positions.
    """
    return [
        gen.dirichlet(np.full(5, 0.3 + t % 4)),
        gen.integers(1, 7 + t % 5),
        gen.choice(9, size=1 + t % 8, replace=False),
        gen.uniform(0.0, 1.0),
        gen.dirichlet(np.ones(t % 3)),
        gen.integers(0, 1000, size=1 + 2 * (t % 3), dtype=np.uint32),
    ]


@pytest.mark.cpu_bits
def test_rekeyed_stream_draws_as_a_fresh_stream():
    rekey = rekeyed_stream(11)
    for t in range(301):
        gen = rekey(t)
        fresh = stream(11, t)
        for got, expected in zip(_experiment_draws(gen, t), _experiment_draws(fresh, t)):
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), t
        assert repr(gen.bit_generator.state) == repr(fresh.bit_generator.state), t
    with pytest.raises(ValueError):
        rekey(-1)


_OUTSIDE_64_BITS = r"must lie in \[0, 2\*\*64\)"


@pytest.mark.parametrize("seed, index", [(2**64, 0), (0, 2**64), (-1, 0), (0, -1), (10**23, 3)])
def test_stream_refuses_a_key_word_outside_64_bits(seed, index):
    with pytest.raises(ValueError, match=_OUTSIDE_64_BITS):
        stream(seed, index)


@pytest.mark.parametrize("bad", [2**64, -1])
def test_rekeyed_stream_refuses_a_key_word_outside_64_bits(bad):
    with pytest.raises(ValueError, match=_OUTSIDE_64_BITS):
        rekeyed_stream(bad)
    with pytest.raises(ValueError, match=_OUTSIDE_64_BITS):
        rekeyed_stream(0)(bad)


def test_streams_take_the_largest_64_bit_key():
    top = 2**64 - 1
    assert stream(top, top).random() == rekeyed_stream(top)(top).random()


def test_label_shift_single_class_removes_nothing_and_says_so():
    preds, labels = np.array([0, 1]), np.array([0, 0])
    res = label_shift_experiment(preds, labels, trials=3, seed=0)
    assert [p.mechanism for p in res.points] == ["dirichlet_resample", "dirichlet_resample", "unseen_classes"]
    assert [(p.hellinger, p.loss) for p in res.points[:2]] == [(0.0, 0.5), (0.0, 0.5)]
    moved = res.points[2]
    assert 0.0 < moved.hellinger and 0.5 < moved.loss  # mass moved to never-seen classes costs the ceiling
    lo, _, up, _ = certificate_band(res.stats, moved.hellinger)
    assert lo - 1e-9 <= moved.loss <= up + 1e-9


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


def test_mixture_checks_the_whole_grid_before_drawing_a_cell(monkeypatch):
    drawn = []
    monkeypatch.setattr(experiments, "stream", lambda *key: drawn.append(key) or stream(*key))
    with pytest.raises(ValueError, match=r"^gamma must lie in \[0, 1\], got 1\.5$"):
        mixture_experiment([0.5, 1.5], seed=0, n_samples=10)
    assert drawn == []
