"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines.
Criteria with runtime budgets assert them.
"""

import json
import math
import time

import numpy as np
import pytest

from hellcert.bounds import (
    LossStatistics,
    certificate_band,
    classification_error_upper,
    lower_bound,
    max_valid_radius_lower,
    max_valid_radius_upper,
    upper_bound,
)
from hellcert.cli import main
from hellcert.experiments import label_shift_experiment, mixture_experiment
from hellcert.finite_sample import ConfidenceBudget, EmpiricalSample, corollary_upper_bound
from hellcert.losses import jsd_gradient, jsd_loss
from hellcert.network import jsd_head_constants
from hellcert.oracle import DiscreteInstance, worst_case_inf, worst_case_sup
from hellcert.rng import stream
from hellcert.shifts import DiscreteDistribution
from hellcert.synthetic import compare_certificates
from hellcert.bounds import RadiusValidityError

from gram import gram_determinant


def report(line):
    print(f"\nACCEPTANCE {line}")


def random_stats(gen, min_mean_frac=0.0, max_mean_frac=0.99, ceiling=1.0):
    mean = float(gen.uniform(min_mean_frac, max_mean_frac)) * ceiling
    variance = float(gen.uniform(0.0, 1.0)) * mean * (ceiling - mean)
    return LossStatistics(mean, variance, ceiling)


def test_criterion_01_oracle_domination():
    t0 = time.monotonic()
    gen = stream(2024)
    violations = 0
    for _ in range(1000):
        k = int(gen.integers(2, 9))
        p = gen.dirichlet(np.ones(k))
        losses = gen.random(k)
        mean = float(p @ losses)
        var = float(p @ (losses - mean) ** 2)
        stats = LossStatistics(mean, var, 1.0)
        r_up = float(gen.random()) * max_valid_radius_upper(stats) * 0.999
        r_lo = float(gen.random()) * max_valid_radius_lower(stats) * 0.999
        sup = worst_case_sup(DiscreteInstance(p, losses, 1.0, r_up))
        inf = worst_case_inf(DiscreteInstance(p, losses, 1.0, r_lo))
        if upper_bound(stats, r_up).bound < sup.value - 1e-9:
            violations += 1
        if lower_bound(stats, r_lo).bound > inf.value + 1e-9:
            violations += 1
    elapsed = time.monotonic() - t0
    assert violations == 0
    assert elapsed < 60.0
    report(f"1 (oracle domination, 1000 instances, {elapsed:.1f}s): PASS")


def test_criterion_02_tightness_at_zero_error():
    gen = stream(2)
    for _ in range(100):
        rho = float(gen.random())
        bound = classification_error_upper(0.0, rho).bound
        assert abs(bound - rho * rho * (2.0 - rho * rho)) <= 1e-9
    # Spot-check the analytic value against the actual discrete oracle.
    for rho in (0.1, 0.3, 0.6, 0.9):
        sup = worst_case_sup(DiscreteInstance([1.0, 0.0], [0.0, 1.0], 1.0, rho))
        assert abs(classification_error_upper(0.0, rho).bound - sup.value) <= 1e-9
    report("2 (tightness at zero error, 100 radii + oracle): PASS")


def test_criterion_03_faithfulness():
    gen = stream(3)
    worst = 0.0
    for _ in range(10_000):
        stats = random_stats(gen, min_mean_frac=0.01)
        assert upper_bound(stats, 0.0).bound == stats.mean
        assert lower_bound(stats, 0.0).bound == stats.mean
        du = abs(upper_bound(stats, 1e-6).bound - stats.mean)
        dl = abs(lower_bound(stats, 1e-6).bound - stats.mean)
        worst = max(worst, du, dl)
    assert worst <= 1e-4
    report(f"3 (faithfulness at rho -> 0, worst drift {worst:.2e}): PASS")


def test_criterion_04_variance_monotonicity():
    gen = stream(4)
    dv = 1e-6
    checked = 0
    while checked < 10_000:
        stats = random_stats(gen, min_mean_frac=0.01)
        bumped_var = stats.variance + dv
        cap = stats.mean * (stats.ceiling - stats.mean)
        if bumped_var > cap:
            continue
        bumped = LossStatistics(stats.mean, bumped_var, stats.ceiling)
        rho = float(gen.random()) * max_valid_radius_upper(bumped) * 0.999
        base = upper_bound(stats, rho).bound
        more = upper_bound(bumped, rho).bound
        assert more >= base - 1e-12
        checked += 1
    report("4 (variance monotonicity, 10^4 tuples): PASS")


def test_criterion_05_finite_sample_coverage():
    t0 = time.monotonic()
    p = np.array([0.4, 0.3, 0.2, 0.1])
    values = np.array([0.0, 0.2, 0.5, 1.0])
    rho, delta, n = 0.1, 0.05, 200
    true_sup = worst_case_sup(DiscreteInstance(p, values, 1.0, rho)).value
    budget = ConfidenceBudget(delta)
    failures = 0
    for t in range(500):
        gen = stream(77, t)
        sample = EmpiricalSample(values[gen.choice(4, size=n, p=p)], 1.0)
        try:
            if corollary_upper_bound(sample, rho, budget).bound < true_sup:
                failures += 1
        except RadiusValidityError:
            failures += 1
    elapsed = time.monotonic() - t0
    assert failures / 500 <= delta
    assert elapsed < 120.0
    report(f"5 (finite-sample coverage, {failures}/500 misses, {elapsed:.1f}s): PASS")


def test_criterion_06_pairwise_variance_identity():
    gen = stream(6)
    total = 0
    worst = 0.0
    for n in (2, 3, 5, 10, 25, 60):
        batch = 100_000 // 6 + 1
        x = gen.random((batch, n))
        diffs = x[:, :, None] - x[:, None, :]
        pairwise = (diffs**2).sum(axis=(1, 2)) / (2.0 * n * (n - 1))
        standard = x.var(axis=1, ddof=1)
        worst = max(worst, float(np.abs(pairwise - standard).max()))
        total += batch
    assert total >= 100_000
    assert worst <= 1e-10
    report(f"6 (pairwise variance identity, {total} samples, worst {worst:.1e}): PASS")


def test_criterion_07_jsd_gradient_check():
    gen = stream(7)
    h = 1e-5
    worst = 0.0
    for _ in range(1000):
        c = int(gen.integers(2, 7))
        z = gen.standard_normal(c) * 2.0
        y = int(gen.integers(0, c))
        analytic = jsd_gradient(z, y)
        fd = np.zeros(c)
        for j in range(c):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h

            def val(logits):
                e = np.exp(logits - logits.max())
                return jsd_loss(e[y] / e.sum())

            fd[j] = (val(zp) - val(zm)) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-5
    report(f"7 (jsd gradient vs finite differences, worst rel {worst:.1e}): PASS")


def test_criterion_08_head_constant():
    l0, _ = jsd_head_constants()
    assert abs(l0 - 0.314568) <= 1e-4
    report(f"8 (head constant {l0:.6f} vs 0.314568): PASS")


def test_criterion_09_figure5_reproduction():
    t0 = time.monotonic()
    rows = compare_certificates(
        widths=(16,),
        depths=(2,),
        delta_grid=(0.01, 0.25, 0.5, 1.0, 1.5, 2.0),
        seed=1,
        n_train=2000,
        n_eval=10000,
        train_steps=2000,
    )
    elapsed = time.monotonic() - t0
    small = next(r for r in rows if r.norm_delta == 0.01)
    for cert in (small.gramian_cert, small.dual_cert, small.lipschitz_cert):
        assert abs(cert - small.empirical_loss_shifted) <= 0.02
    assert any(r.dual_cert > 1.0 and r.gramian_cert <= 1.0 for r in rows)
    # Empirical validity across the sweep: the measured shifted loss never
    # exceeds the Gramian certificate.
    assert all(r.empirical_loss_shifted <= r.gramian_cert + 1e-12 for r in rows)
    assert elapsed < 600.0
    report(f"9 (width-16 depth-2 sweep, dual vacuous while gramian <= 1, {elapsed:.0f}s): PASS")


def test_criterion_10_label_shift_containment():
    gen = stream(5)
    n, k = 5000, 10
    labels = gen.integers(0, k, size=n)
    wrong = gen.random(n) < labels / 20.0
    preds = np.where(wrong, (labels + 1) % k, labels)
    result = label_shift_experiment(preds, labels, trials=10_000, seed=9, unseen_classes=2)
    outside = 0
    for pt in result.points:
        lo, _, up, _ = certificate_band(result.stats, pt.hellinger)
        if not (lo - 1e-9 <= pt.loss <= up + 1e-9):
            outside += 1
    assert outside == 0
    report(f"10 (label-shift containment, {len(result.points)} shifts, 0 outside): PASS")


def test_criterion_11_mixture_containment():
    grid = np.round(np.arange(0.05, 1.0001, 0.05), 10)
    cells = mixture_experiment(grid, seed=3, n_samples=20_000)
    assert len(cells) == 20
    for c in cells:
        assert c.loss_lower_cert - 1e-9 <= c.loss_exact <= c.loss_upper_cert + 1e-9
        assert c.auc_lower_cert - 1e-9 <= c.auc_estimate <= c.auc_upper_cert + 1e-9
    report("11 (mixture containment, 20 cells, 0-1 loss and AUC): PASS")


def test_criterion_12_gram_psd():
    gen = stream(12)
    total = 0
    worst = 0.0
    for k in (1, 2, 3, 5, 8):
        batch = 100_000 // 5
        p = gen.dirichlet(np.ones(k), size=batch)
        q = gen.dirichlet(np.ones(k), size=batch)
        f = gen.random((batch, k))
        root_pq = np.sqrt(p * q)
        g01 = root_pq.sum(axis=1)
        g02 = (f * root_pq).sum(axis=1)
        g12 = (f * p).sum(axis=1)
        g22 = (f * f * p).sum(axis=1)
        grams = np.empty((batch, 3, 3))
        grams[:, 0, 0] = 1.0
        grams[:, 1, 1] = 1.0
        grams[:, 2, 2] = g22
        grams[:, 0, 1] = grams[:, 1, 0] = g01
        grams[:, 0, 2] = grams[:, 2, 0] = g02
        grams[:, 1, 2] = grams[:, 2, 1] = g12
        dets = np.linalg.det(grams)
        worst = min(worst, float(dets.min())) if total else float(dets.min())
        total += batch
    # One structural spot check through the shared helper.
    g = stream(13)
    assert gram_determinant(
        DiscreteDistribution(g.dirichlet(np.ones(4))),
        DiscreteDistribution(g.dirichlet(np.ones(4))),
        g.random(4),
    ) >= -1e-12
    assert total >= 100_000
    assert worst >= -1e-12
    report(f"12 (gram determinant PSD, {total} triples, min det {worst:.1e}): PASS")


def test_criterion_13_cli_determinism(tmp_path, monkeypatch):
    gen = stream(42)
    inputs = {}
    inputs["losses.csv"] = "loss\n" + "\n".join(str(v) for v in gen.random(200)) + "\n"
    labels = gen.integers(0, 4, size=200)
    predsv = np.where(gen.random(200) < 0.15, (labels + 1) % 4, labels)
    inputs["preds.csv"] = (
        "pred,label\n" + "\n".join(f"{p},{l}" for p, l in zip(predsv, labels)) + "\n"
    )
    sv = gen.standard_normal(100)
    lv = np.where(np.arange(100) % 2 == 0, 1, -1)
    inputs["scores.csv"] = (
        "score,label\n" + "\n".join(f"{s + 1.5 * l},{l}" for s, l in zip(sv, lv)) + "\n"
    )
    inputs["inst.json"] = '{"p": [0.6, 0.4], "losses": [0.1, 0.8], "M": 1.0, "rho": 0.2}'

    # Identical command lines (relative paths) replayed in fresh directories.
    commands = {
        "certify": ["certify", "losses.csv", "--rho", "0.05"],
        "certify-accuracy": ["certify-accuracy", "preds.csv", "--rho", "0.05"],
        "certify-auc": ["certify-auc", "scores.csv", "--rho-conditional", "0.1", "--seed", "6"],
        "oracle": ["oracle", "inst.json"],
        "label-shift": [
            "label-shift", "--dataset", "preds.csv", "--trials", "40", "--seed", "5",
            "--scatter-csv", "scatter.csv", "--curve-csv", "curve.csv",
        ],
        "mixture": ["mixture", "--gamma-grid", "0.25,0.75", "--seed", "5",
                    "--samples", "500", "--csv", "mix.csv"],
        "synthetic-compare": [
            "synthetic-compare", "--widths", "2", "--depths", "1",
            "--delta-grid", "0.01,1.0", "--seed", "5", "--n-train", "150",
            "--n-eval", "200", "--train-steps", "60", "--csv", "sweep.csv",
        ],
    }
    for name, args in commands.items():
        outputs = []
        for run in ("one", "two"):
            run_dir = tmp_path / f"{name}-{run}"
            run_dir.mkdir()
            for fname, content in inputs.items():
                (run_dir / fname).write_text(content)
            monkeypatch.chdir(run_dir)
            code = main(args + ["--output", "report.json"])
            assert code == 0, f"{name} exited {code}"
            blob = (run_dir / "report.json").read_bytes()
            for extra in sorted(run_dir.glob("*.csv")):
                if extra.name not in inputs:
                    blob += extra.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1], f"{name} output not byte-identical"
    report("13 (CLI determinism, 7 subcommands byte-identical): PASS")
