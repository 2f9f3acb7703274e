"""Output checks computed apart from the program.

Every check either recomputes a quantity from the generated inputs with its
own arithmetic, or tests a property the method must have.  None compares
against a stored copy of an earlier output.  Each checker returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

TOL = 1e-9


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---- closed forms, written from the published formulas -------------------

def c_rho(rho):
    r2 = rho * rho
    return math.sqrt(r2 * (1.0 - r2) ** 2 * (2.0 - r2))


def _validity(ratio2):
    return math.sqrt(1.0 - 1.0 / math.sqrt(1.0 + ratio2))


def closed_form_band(mean, var, ceiling, rho):
    """(lower, upper) population certificates; 0 and the ceiling beyond validity."""
    shrink = rho * rho * (2.0 - rho * rho)
    upper_radius = 1.0 if var <= 0.0 else _validity((ceiling - mean) ** 2 / var)
    lower_radius = 1.0 if var <= 0.0 else _validity(mean * mean / var)
    if rho <= upper_radius:
        corr = var / (ceiling - mean) if var > 0.0 else 0.0
        upper = min(mean + 2.0 * c_rho(rho) * math.sqrt(var) + shrink * (ceiling - mean - corr), ceiling)
    else:
        upper = ceiling
    if rho <= lower_radius:
        corr = var / mean if mean > 0.0 else 0.0
        lower = max(mean - 2.0 * c_rho(rho) * math.sqrt(var) - shrink * (mean - corr), 0.0)
    else:
        lower = 0.0
    return lower, upper


def sample_moments(x):
    """n, mean and unbiased variance with compensated sums."""
    x = np.asarray(x, dtype=float)
    n = x.size
    mean = math.fsum(x.tolist()) / n
    var = math.fsum(((x - mean) ** 2).tolist()) / (n - 1)
    return n, mean, var


def finite_sample_upper(n, mean, var, ceiling, rho, delta):
    """Finite-sample upper certificate, the published expression term by term."""
    m = ceiling
    if rho == 0.0:
        return min(mean, m)
    ln2d = math.log(2.0 / delta)
    cr = c_rho(rho)
    shrink = rho * rho * (2.0 - rho * rho)
    slack = (2.0 * cr / math.sqrt(n - 1) - shrink / (2.0 * math.sqrt(n))) * m * math.sqrt(2.0 * ln2d)
    u = var + 2.0 * m * math.sqrt(2.0 * var * ln2d / (n - 1)) + 2.0 * m * m * ln2d / (n - 1)
    bracket = m - mean + u / (mean - m * (1.0 - math.sqrt(ln2d / (2.0 * n))))
    return min(mean + 2.0 * cr * math.sqrt(var) + slack + shrink * bracket, m)


def finite_sample_lower(n, mean, var, ceiling, rho, delta):
    """Lower certificate: Hoeffding mean and Maurer-Pontil deviation bounds at delta/3 each."""
    m = ceiling
    ln3d = math.log(3.0 / delta)
    mean_slack = m * math.sqrt(ln3d / (2.0 * n))
    std_up = math.sqrt(var) + m * math.sqrt(2.0 * ln3d / (n - 1))
    shrink = rho * rho * (2.0 - rho * rho)
    raw = max(mean - mean_slack, 0.0) - 2.0 * c_rho(rho) * std_up - shrink * (mean + mean_slack)
    return max(raw, 0.0)


def mann_whitney_auc(scores, labels):
    """Share of (positive, negative) pairs with s+ >= s-, by sorting; ties count as successes."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == -1])
    wins = int(np.searchsorted(neg, pos, side="right").sum())
    return wins / (pos.size * neg.size)


def two_point_extremes(p2, l1, l2, rho):
    """(inf, sup) of E_q[loss] over the Hellinger ball around (1 - p2, p2).

    With sqrt(q2) = cos(b) the affinity is cos(a - b), a = arccos(sqrt(p2)),
    so the ball is |a - b| <= arccos(1 - rho^2) and q2 runs over
    cos^2(a -/+ arccos(1 - rho^2)), clamped to [0, pi/2].
    """
    a = math.acos(min(math.sqrt(p2), 1.0))
    w = math.acos(1.0 - rho * rho)
    t_hi = math.cos(max(a - w, 0.0)) ** 2
    t_lo = math.cos(min(a + w, math.pi / 2)) ** 2
    values = (l1 + (l2 - l1) * t_hi, l1 + (l2 - l1) * t_lo)
    return min(values), max(values)


def hellinger(p, q):
    return math.sqrt(max(0.5 * float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)), 0.0))


# ---- per-operation checks -------------------------------------------------

def check_oracle(inst, sup_value, sup_q, inf_value, inf_q):
    problems = []
    p = np.asarray(inst["p"], dtype=float)
    p = p / p.sum()
    losses = np.asarray(inst["losses"], dtype=float)
    rho, m = float(inst["rho"]), float(inst["M"])
    for name, value, q in (("sup", sup_value, sup_q), ("inf", inf_value, inf_q)):
        q = np.asarray(q, dtype=float)
        if q.shape != p.shape or np.any(q < 0.0) or not _close(float(q.sum()), 1.0):
            problems.append(f"{name}: extremizer is not a distribution")
            continue
        if hellinger(p, q) > rho + TOL:
            problems.append(f"{name}: extremizer at H={hellinger(p, q):.17g} > rho={rho}")
        if not _close(float(q @ losses), value):
            problems.append(f"{name}: reported {value!r} but E_q[loss]={float(q @ losses)!r}")
    mean = float(p @ losses)
    if not (sup_value >= mean - 1e-12 and mean >= inf_value - 1e-12):
        problems.append(f"order sup={sup_value!r} E_p={mean!r} inf={inf_value!r} broken")
    var = float(p @ (losses - mean) ** 2)
    lower, upper = closed_form_band(mean, var, m, rho)
    if sup_value > upper + TOL or inf_value < lower - TOL:
        problems.append(f"oracle [{inf_value!r}, {sup_value!r}] outside band [{lower!r}, {upper!r}]")
    if p.size == 2:
        lo, hi = two_point_extremes(p[1], losses[0], losses[1], rho)
        if abs(lo - inf_value) > 1e-10 or abs(hi - sup_value) > 1e-10:
            problems.append(f"two-point closed form [{lo!r}, {hi!r}] vs oracle [{inf_value!r}, {sup_value!r}]")
    return problems


def check_oracle_report(inst, report):
    return check_oracle(
        inst,
        report["sup"]["value"], report["sup"]["maximizer"],
        report["inf"]["value"], report["inf"]["minimizer"],
    )


def check_certify(report, losses, rho, delta, direction):
    problems = []
    n, mean, var = sample_moments(losses)
    got = report["inputs"]
    if got["n"] != n or not _close(got["empirical_mean"], mean) or not _close(got["unbiased_variance"], var):
        problems.append(f"inputs {got} vs recomputed n={n} mean={mean!r} var={var!r}")
    bound_fn = finite_sample_upper if direction == "upper" else finite_sample_lower
    want = bound_fn(n, mean, var, 1.0, rho, delta)
    if report["bound"] is None or not _close(report["bound"], want, 1e-9):
        problems.append(f"{direction} bound {report['bound']!r} vs formula {want!r}")
    return problems


def check_accuracy(report, flips, n):
    if report["inputs"]["n"] != n or report["empirical_error_rate"] != flips / n:
        return [f"error rate {report['empirical_error_rate']!r} vs {flips}/{n}"]
    return []


def check_auc(report, scores, labels):
    want = mann_whitney_auc(scores, labels)
    if report["auc_point_estimate"] != want:
        return [f"auc {report['auc_point_estimate']!r} vs Mann-Whitney {want!r}"]
    return []


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_label_shift(scatter_csv, flips, n):
    mean = flips / n
    var = mean * (1.0 - mean)
    problems = []
    rows = _rows(scatter_csv)
    if not rows:
        return ["empty scatter"]
    for i, row in enumerate(rows):
        h, loss = float(row["hellinger"]), float(row["loss"])
        lower, upper = closed_form_band(mean, var, 1.0, h)
        if not (lower - TOL <= loss <= upper + TOL):
            problems.append(f"scatter row {i}: loss {loss!r} outside [{lower!r}, {upper!r}] at H={h!r}")
            break
    return problems


def check_mixture(mixture_csv):
    problems = []
    rows = _rows(mixture_csv)
    if not rows:
        return ["empty mixture grid"]
    for row in rows:
        gamma = float(row["gamma"])
        rho = math.sqrt(1.0 - math.sqrt(gamma))
        composite = math.sqrt(rho * rho * (2.0 - rho * rho))
        loss_lo, loss_up = closed_form_band(0.0, 0.0, 1.0, rho)
        auc_lo, auc_up = closed_form_band(1.0, 0.0, 1.0, composite)
        # Perfect on P, inverted on Q: only pairs with both records from Q fail.
        exact_auc = 1.0 - (1.0 - gamma) ** 2
        got = {k: float(row[k]) for k in ("hellinger", "loss_exact", "loss_lower_cert",
                                          "loss_upper_cert", "auc_lower_cert", "auc_upper_cert")}
        if not _close(got["hellinger"], rho):
            problems.append(f"gamma={gamma}: hellinger {got['hellinger']!r} vs {rho!r}")
        for key, want in (("loss_lower_cert", loss_lo), ("loss_upper_cert", loss_up),
                          ("auc_lower_cert", auc_lo), ("auc_upper_cert", auc_up)):
            if not _close(got[key], want, 1e-9):
                problems.append(f"gamma={gamma}: {key} {got[key]!r} vs closed form {want!r}")
        if not (loss_lo - TOL <= 1.0 - gamma <= loss_up + TOL and auc_lo - TOL <= exact_auc <= auc_up + TOL):
            problems.append(f"gamma={gamma}: exact values outside the band")
    return problems


def check_sweep(sweep_csv):
    problems = []
    rows = _rows(sweep_csv)
    if not rows:
        return ["empty sweep"]
    for row in rows:
        d = float(row["norm_delta"])
        shifted = float(row["empirical_loss_shifted"])
        for cert in ("dual_cert", "lipschitz_cert"):
            if float(row[cert]) < shifted:
                problems.append(f"delta={d}: {cert} {row[cert]} below shifted loss {shifted!r}")
        if not _close(float(row["hellinger"]), math.sqrt(1.0 - math.exp(-d * d / 8.0))):
            problems.append(f"delta={d}: hellinger column {row['hellinger']}")
        if float(row["wasserstein"]) != d:
            problems.append(f"delta={d}: wasserstein column {row['wasserstein']}")
    return problems


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
