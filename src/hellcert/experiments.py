"""Monte Carlo shift experiments: label-shift scatter and disjoint-mixture curves.

Both experiments certify the 0-1 loss (ceiling 1) and treat the empirical
evaluation distribution as the reference P, so the shifted losses they emit
are exact reweightings of measured conditional losses.  At that level the closed-form certificates hold
deterministically, which is what makes the containment checks sharp instead
of statistical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import LossStatistics, lower_bound, max_valid_radius_lower, max_valid_radius_upper, upper_bound
from .losses import PredictionSample, ScoredSample, auc_estimate
from .rng import rekeyed_stream, stream
from .shifts import DiscreteDistribution, auc_composite_radius, mixture_hellinger_disjoint, root_difference_hellinger

__all__ = [
    "LabelShiftPoint",
    "LabelShiftResult",
    "label_shift_experiment",
    "certificate_band",
    "certificate_curve",
    "MixtureCell",
    "mixture_experiment",
    "MIXTURE_CLASSIFIER",
]

MECHANISMS = ("dirichlet_resample", "class_removal", "unseen_classes")

# Label-shift trials are validated, normalized and differenced a block of
# about this many bytes of q at a time.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class LabelShiftPoint:
    """One row of the label-shift scatter CSV; the fields, in order, are its columns."""

    hellinger: float
    loss: float
    mechanism: str


@dataclass(frozen=True)
class LabelShiftResult:
    points: list
    curve: list  # (rho, lower, lower_is_trivial, upper, upper_is_trivial)
    stats: LossStatistics
    class_priors: np.ndarray


def certificate_band(stats: LossStatistics, rho: float):
    """(lower, lower_trivial, upper, upper_trivial) at a radius, falling back to
    the trivially valid bounds 0 and ceiling beyond each validity radius."""
    if rho <= max_valid_radius_upper(stats):
        upper, upper_trivial = upper_bound(stats, rho).bound, False
    else:
        upper, upper_trivial = stats.ceiling, True
    if rho <= max_valid_radius_lower(stats):
        lower, lower_trivial = lower_bound(stats, rho).bound, False
    else:
        lower, lower_trivial = 0.0, True
    return lower, lower_trivial, upper, upper_trivial


def certificate_curve(stats: LossStatistics, n_points: int = 200):
    """Band sampled on an even radius grid over [0, 1]."""
    rows = []
    for rho in np.linspace(0.0, 1.0, n_points):
        lo, lo_triv, up, up_triv = certificate_band(stats, float(rho))
        rows.append((float(rho), lo, lo_triv, up, up_triv))
    return rows


def label_shift_experiment(
    predictions,
    labels,
    trials: int = 10000,
    seed: int = 0,
    unseen_classes: int = 2,
    dirichlet_concentration: float = 10.0,
) -> LabelShiftResult:
    """Scatter of (Hellinger distance, exactly reweighted 0-1 loss) under random label shifts.

    Class-conditional error rates are estimated once from the data and held
    fixed; each trial samples a shifted label distribution by one of three
    mechanisms (cycled by trial index), with the draws of ``stream(seed, t)``
    for trial t:

    1. Dirichlet resampling around the empirical priors,
    2. zeroing a random subset of classes and renormalizing (a single class
       has none to spare, so there the trial resamples as in 1 and is
       labelled so),
    3. moving a random amount of mass onto synthetic never-seen classes,
       whose conditional loss is the ceiling 1 (a deployed classifier cannot
       predict a class it never saw).

    The per-trial loss is the exact mixture sum q(y) * E_hat[loss | y], i.e.
    the expected loss under the shifted distribution that shares the empirical
    conditionals, so every scatter point is covered by the closed-form band
    at its own radius.
    """
    sample = PredictionSample(predictions, labels)
    predictions, labels = sample.predictions, sample.labels
    classes, class_of, counts = np.unique(labels, return_inverse=True, return_counts=True)
    k = classes.size
    priors = counts / counts.sum()
    wrong = (predictions != labels).astype(float)
    # Per-class error rates; sums of 0s and 1s are exact in any order.
    cond_loss = np.bincount(class_of, weights=wrong) / counts
    overall = float(wrong.mean())
    stats = LossStatistics(mean=overall, variance=overall * (1.0 - overall), ceiling=1.0)

    m = k + unseen_classes
    root_prior = np.sqrt(DiscreteDistribution(np.concatenate([priors, np.zeros(unseen_classes)])).probs)
    alpha = dirichlet_concentration * priors
    flat = np.ones(unseen_classes)
    rekey = rekeyed_stream(seed)
    rows = max(1, _BLOCK_BYTES // (8 * m))
    block_buffer, roots_buffer = np.empty((rows, m)), np.empty((rows, m))
    points = []
    for start in range(0, trials, rows):
        # One row of q per trial t, from the draws of stream(seed, t).
        block = block_buffer[: min(rows, trials - start)]
        block.fill(0.0)
        mechanisms = []
        for t, q in enumerate(block, start):
            gen = rekey(t)
            mech = MECHANISMS[t % len(MECHANISMS)]
            if mech == "class_removal" and k == 1:  # one class leaves nothing to remove
                mech = "dirichlet_resample"
            if mech == "dirichlet_resample":
                q[:k] = gen.dirichlet(alpha)
            elif mech == "class_removal":
                n_remove = int(gen.integers(1, k))
                q[:k] = priors
                q[gen.choice(k, size=n_remove, replace=False)] = 0.0
                q[:k] /= q[:k].sum()
            else:
                moved = float(gen.uniform(0.0, 1.0))
                q[k:] = moved * gen.dirichlet(flat)
                q[:k] = (1.0 - moved) * priors
            mechanisms.append(mech)
        totals = block.sum(axis=1)
        bad = ~np.isfinite(block).all(axis=1) | (block < 0.0).any(axis=1) | ~(totals > 0.0)
        if bad.any():
            DiscreteDistribution(block[np.argmax(bad)])  # raises the first bad trial's error
        block /= totals[:, None]
        root_differences = np.sqrt(block, out=roots_buffer[: len(block)])
        np.subtract(root_prior, root_differences, out=root_differences)
        for q, d, mech in zip(block, root_differences, mechanisms):
            loss = float(q[:k] @ cond_loss + q[k:].sum())
            points.append(LabelShiftPoint(hellinger=root_difference_hellinger(d), loss=loss, mechanism=mech))

    return LabelShiftResult(
        points=points,
        curve=certificate_curve(stats),
        stats=stats,
        class_priors=priors,
    )


# Fixed classifier for the disjoint-support mixture benchmark: features 0..9
# belong to the reference distribution P (predictions are always right there),
# features 10..19 to the disjoint Q (predictions are always wrong).  Even
# features carry label +1.  Scores are arranged so ranking is perfect on P
# and inverted on Q.
MIXTURE_CLASSIFIER = {
    "n_features_per_support": 10,
    "scores": {"p_pos": 3.0, "p_neg": 0.0, "q_pos": 1.0, "q_neg": 2.0},
}


@dataclass(frozen=True)
class MixtureCell:
    """One row of the mixture CSV; the fields, in order, are its columns."""

    gamma: float
    hellinger: float
    composite_radius: float
    loss_sampled: float
    loss_exact: float
    loss_lower_cert: float
    loss_upper_cert: float
    auc_estimate: float
    auc_lower_cert: float
    auc_upper_cert: float
    n: int


def mixture_experiment(gamma_grid, seed: int = 0, n_samples: int = 10000):
    """Mixture curve Pi_gamma = gamma P + (1 - gamma) Q with disjoint supports.

    For each gamma the evaluation data is drawn from the mixture; the 0-1
    loss band comes from the exact reference statistics (error 0 on P by
    construction) at radius sqrt(1 - sqrt(gamma)), and the AUC band from the
    pair-success statistics at the composite radius sqrt(1 - gamma).
    """
    nf = MIXTURE_CLASSIFIER["n_features_per_support"]
    sc = MIXTURE_CLASSIFIER["scores"]
    cells = []
    # On P the classifier is exact, on Q maximally wrong: conditional losses
    # 0 and 1, hence exact mixture loss 1 - gamma.
    loss_stats = LossStatistics(mean=0.0, variance=0.0, ceiling=1.0)
    pair_stats = LossStatistics(mean=1.0, variance=0.0, ceiling=1.0)
    for cell_idx, gamma in enumerate(gamma_grid):
        gamma = float(gamma)
        if not (0.0 <= gamma <= 1.0):
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        gen = stream(seed, cell_idx)
        from_p = gen.random(n_samples) < gamma
        feature = gen.integers(0, nf, size=n_samples) + np.where(from_p, 0, nf)
        label = np.where(feature % 2 == 0, 1, -1)
        pred = np.where(from_p, label, -label)
        pos = label == 1
        score = np.where(
            from_p,
            np.where(pos, sc["p_pos"], sc["p_neg"]),
            np.where(pos, sc["q_pos"], sc["q_neg"]),
        )
        losses = (pred != label).astype(float)

        rho = mixture_hellinger_disjoint(gamma)
        composite = auc_composite_radius(rho)
        lo, _, up, _ = certificate_band(loss_stats, rho)
        auc_lo, _, auc_up, _ = certificate_band(pair_stats, composite)
        if pos.any() and (~pos).any():
            auc = auc_estimate(ScoredSample(score, label))
        else:
            auc = math.nan
        cells.append(
            MixtureCell(
                gamma=gamma,
                hellinger=rho,
                composite_radius=composite,
                loss_sampled=float(losses.mean()),
                loss_exact=1.0 - gamma,
                loss_lower_cert=lo,
                loss_upper_cert=up,
                auc_estimate=auc,
                auc_lower_cert=auc_lo,
                auc_upper_cert=auc_up,
                n=n_samples,
            )
        )
    return cells
