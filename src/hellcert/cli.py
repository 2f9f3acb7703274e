"""Command-line interface.

Subcommands::

    certify            finite-sample certificate for a file of losses
    certify-accuracy   0-1 loss certificate from (pred, label) records
    certify-auc        AUC lower certificate from (score, label) records
    oracle             exact discrete worst case for an instance JSON
    label-shift        random label-shift scatter vs. certificate curve
    mixture            disjoint-support mixture curve (0-1 loss and AUC)
    synthetic-compare  Gaussian-mixture sweep against Wasserstein baselines

Exit codes: 0 success, 1 input error, 2 validity-radius violation,
3 solver diagnostic.  All randomness flows through seeded counter-based
streams and reports default to a null timestamp, so identical command lines
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .bounds import LossStatistics, RadiusValidityError, classification_error_upper
from .experiments import certificate_band, label_shift_experiment, mixture_experiment
from .finite_sample import (
    ConfidenceBudget,
    DegenerateSampleError,
    EmpiricalSample,
    corollary_lower_bound,
    corollary_upper_bound,
    max_valid_radius_empirical,
    max_valid_radius_empirical_lower,
)
from .io import (
    InputFormatError,
    base_report,
    json_document,
    read_losses,
    read_predictions,
    read_scores,
    write_csv,
)
from .losses import PredictionSample, ScoredSample, auc_estimate, auc_pair_sample, zero_one_stats
from .oracle import GAP_TOL, DiscreteInstance, OracleDisagreementError, worst_case_inf, worst_case_sup
from .shifts import auc_composite_radius
from .synthetic import SWEEP_COLUMNS, compare_certificates

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RADIUS = 2
EXIT_SOLVER = 3

_AUC_DECISIONS = {
    "auc_tie_policy": "ties_count_as_success",
    "auc_pairing": "disjoint_random_pairs",
    "auc_formulation": "lower_bound_on_success_indicator",
}


def _emit(report: dict, output) -> None:
    text = json_document(report)
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sample_inputs(sample: EmpiricalSample, delta) -> dict:
    return {
        "n": sample.n,
        "max_loss": sample.ceiling,
        "empirical_mean": sample.empirical_mean,
        "unbiased_variance": sample.unbiased_variance,
        "delta": delta,
    }


def _grid(text: str):
    """Parse '0.1,0.2,0.3' or 'start:stop:step' (stop inclusive up to rounding)."""
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        if not step > 0:
            raise ValueError(f"grid {text!r}: step must be positive")
        n = int(round((stop - start) / step)) + 1
        if n < 1:
            raise ValueError(f"grid {text!r} has no points")
        return [start + i * step for i in range(n)]
    return [float(v) for v in text.split(",")]


def _certify_sample(args, sample: EmpiricalSample, report: dict, extras=None) -> int:
    delta = args.delta
    report["inputs"] = _sample_inputs(sample, delta)
    report["direction"] = args.direction
    report["radius"] = args.rho
    if extras:
        report.update(extras)
    if args.direction == "upper":
        budget = ConfidenceBudget(delta, split="two_way")
        mv = max_valid_radius_empirical(sample, budget)
        compute = corollary_upper_bound
    else:
        budget = ConfidenceBudget(delta, split="three_way")
        mv = max_valid_radius_empirical_lower(sample, budget)
        compute = corollary_lower_bound
    report["max_valid_radius"] = mv
    report["decisions"]["delta_split"] = budget.split
    try:
        cert = compute(sample, args.rho, budget)
    except RadiusValidityError:
        report["bound"] = None
        report["raw_bound"] = None
        report["confidence"] = None
        return EXIT_RADIUS
    except DegenerateSampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report["bound"] = cert.bound
    report["raw_bound"] = cert.raw_bound
    report["confidence"] = cert.confidence
    return EXIT_OK


def _cmd_certify(args) -> int:
    losses = read_losses(args.file, args.format, ceiling=args.max_loss)
    sample = EmpiricalSample(losses, ceiling=args.max_loss)
    report = base_report("certify", None, {"radius_policy": "reject_beyond_validity"})
    code = _certify_sample(args, sample, report)
    _emit(report, args.output)
    return code


def _cmd_certify_accuracy(args) -> int:
    preds, labels = read_predictions(args.file, args.format)
    sample = zero_one_stats(PredictionSample(preds, labels))
    report = base_report("certify-accuracy", None, {"radius_policy": "reject_beyond_validity"})
    error_rate = sample.empirical_mean
    try:
        ref = classification_error_upper(error_rate, args.rho)
        population_reference = ref.bound
    except RadiusValidityError:
        population_reference = None
    code = _certify_sample(
        args, sample, report,
        extras={"empirical_error_rate": error_rate,
                "population_reference_upper": population_reference},
    )
    _emit(report, args.output)
    return code


def _cmd_certify_auc(args) -> int:
    scores, labels = read_scores(args.file, args.format)
    scored = ScoredSample(scores, labels)
    pairs = auc_pair_sample(scored, args.seed)
    composite = auc_composite_radius(args.rho_conditional)
    budget = ConfidenceBudget(args.delta, split="three_way")
    report = base_report("certify-auc", args.seed, dict(_AUC_DECISIONS, delta_split="three_way"))
    report["inputs"] = _sample_inputs(pairs, args.delta)
    report["inputs"]["n_positive"] = int(scored.positives.size)
    report["inputs"]["n_negative"] = int(scored.negatives.size)
    report["direction"] = "lower"
    report["radius_conditional"] = args.rho_conditional
    report["radius"] = composite
    report["auc_point_estimate"] = auc_estimate(scored)
    mv = max_valid_radius_empirical_lower(pairs, budget)
    report["max_valid_radius"] = mv
    try:
        cert = corollary_lower_bound(pairs, composite, budget)
        report["bound"] = cert.bound
        report["raw_bound"] = cert.raw_bound
        report["vacuous"] = False
    except RadiusValidityError:
        # 0 is a sound lower bound at any radius; fall back to it but say so.
        report["bound"] = 0.0
        report["raw_bound"] = None
        report["vacuous"] = True
    report["confidence"] = 1.0 - args.delta
    _emit(report, args.output)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    with open(args.instance, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        inst = DiscreteInstance.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: bad instance file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = base_report("oracle", None, {"duality_gap_tol": GAP_TOL})
    sup = worst_case_sup(inst)
    inf = worst_case_inf(inst)
    exact_mean = float(inst.p.probs @ inst.losses)
    exact_var = float(inst.p.probs @ (inst.losses - exact_mean) ** 2)
    stats = LossStatistics(exact_mean, exact_var, inst.ceiling)
    lo, lo_triv, up, up_triv = certificate_band(stats, inst.rho)
    report.update(
        {
            "instance": {
                "p": list(inst.p.probs),
                "losses": list(inst.losses),
                "M": inst.ceiling,
                "rho": inst.rho,
            },
            "sup": {
                "value": sup.value,
                "maximizer": list(sup.maximizer.probs),
                "method": sup.method,
                "certified_gap": sup.certified_gap,
            },
            "inf": {
                "value": inf.value,
                "minimizer": list(inf.maximizer.probs),
                "method": inf.method,
                "certified_gap": inf.certified_gap,
            },
            "certificates": {
                "mean": exact_mean,
                "variance": exact_var,
                "upper": up,
                "upper_is_trivial": up_triv,
                "lower": lo,
                "lower_is_trivial": lo_triv,
            },
        }
    )
    _emit(report, args.output)
    return EXIT_OK


def _cmd_label_shift(args) -> int:
    preds, labels = read_predictions(args.dataset, args.format)
    result = label_shift_experiment(
        preds,
        labels,
        trials=args.trials,
        seed=args.seed,
        unseen_classes=args.unseen_classes,
        dirichlet_concentration=args.dirichlet_concentration,
    )
    write_csv(
        args.scatter_csv,
        ("hellinger", "loss", "mechanism"),
        ((p.hellinger, p.loss, p.mechanism) for p in result.points),
    )
    write_csv(
        args.curve_csv,
        ("rho", "lower", "lower_is_trivial", "upper", "upper_is_trivial"),
        result.curve,
    )
    report = base_report(
        "label-shift",
        args.seed,
        {
            "unseen_class_loss": "ceiling",
            "mechanism_cycle": "trial_index_mod_3",
            "dirichlet_concentration": args.dirichlet_concentration,
        },
    )
    report.update(
        {
            "trials": args.trials,
            "unseen_classes": args.unseen_classes,
            "inputs": {
                "n": int(len(preds)),
                "n_classes": int(result.class_priors.size),
                "empirical_mean": result.stats.mean,
                "variance": result.stats.variance,
                "max_loss": result.stats.ceiling,
            },
            "excluded_classes": list(result.excluded_classes),
            "scatter_csv": args.scatter_csv,
            "curve_csv": args.curve_csv,
        }
    )
    _emit(report, args.output)
    return EXIT_OK


def _cmd_mixture(args) -> int:
    grid = _grid(args.gamma_grid)
    cells = mixture_experiment(grid, seed=args.seed, n_samples=args.samples)
    write_csv(
        args.csv,
        (
            "gamma",
            "hellinger",
            "composite_radius",
            "loss_sampled",
            "loss_exact",
            "loss_lower_cert",
            "loss_upper_cert",
            "auc_estimate",
            "auc_lower_cert",
            "auc_upper_cert",
            "n",
        ),
        (
            (
                c.gamma,
                c.hellinger,
                c.composite_radius,
                c.loss_sampled,
                c.loss_exact,
                c.loss_lower_cert,
                c.loss_upper_cert,
                c.auc_estimate,
                c.auc_lower_cert,
                c.auc_upper_cert,
                c.n,
            )
            for c in cells
        ),
    )
    report = base_report(
        "mixture",
        args.seed,
        dict(_AUC_DECISIONS, mixture_reference="classifier perfect on P, inverted on Q"),
    )
    report.update({"gamma_grid": grid, "samples": args.samples, "csv": args.csv})
    _emit(report, args.output)
    return EXIT_OK


def _at_least(flag: str, value: int, minimum: int) -> int:
    if value < minimum:
        raise ValueError(f"{flag} must be at least {minimum}, got {value}")
    return value


def _cmd_synthetic_compare(args) -> int:
    widths = [_at_least("--widths", int(w), 1) for w in args.widths.split(",")]
    depths = [_at_least("--depths", int(d), 0) for d in args.depths.split(",")]
    _at_least("--n-train", args.n_train, 1)
    _at_least("--n-eval", args.n_eval, 2)  # the Gramian certificate needs a variance
    _at_least("--train-steps", args.train_steps, 0)
    rows = compare_certificates(
        widths=widths,
        depths=depths,
        delta_grid=_grid(args.delta_grid),
        seed=args.seed,
        budget_convention=args.budget_convention,
        confidence_delta=args.delta,
        n_train=args.n_train,
        n_eval=args.n_eval,
        train_steps=args.train_steps,
    )
    write_csv(args.csv, SWEEP_COLUMNS, (r.as_tuple() for r in rows))
    report = base_report(
        "synthetic-compare",
        args.seed,
        {
            "wasserstein_budget": args.budget_convention,
            "dual_gamma_grid": "geometric 24 points, L* to 64 L*",
            "training": f"full-batch gradient descent, {args.train_steps} steps",
        },
    )
    report.update(
        {
            "widths": widths,
            "depths": depths,
            "delta_grid": _grid(args.delta_grid),
            "confidence_delta": args.delta,
            "n_train": args.n_train,
            "n_eval": args.n_eval,
            "csv": args.csv,
        }
    )
    _emit(report, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hellcert",
        description="Certified worst-case loss bounds over Hellinger balls.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", default=None, help="write the JSON report here (default: stdout)")
        p.add_argument(
            "--format",
            default="auto",
            choices=("auto", "csv_losses", "csv_predictions", "csv_scores", "jsonl"),
        )

    p = sub.add_parser("certify", help="certificate from a file of losses")
    p.add_argument("file")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--max-loss", type=float, default=1.0, dest="max_loss")
    p.add_argument("--direction", choices=("upper", "lower"), default="upper")
    add_common(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("certify-accuracy", help="0-1 loss certificate from predictions")
    p.add_argument("file")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--direction", choices=("upper", "lower"), default="upper")
    add_common(p)
    p.set_defaults(handler=_cmd_certify_accuracy)

    p = sub.add_parser("certify-auc", help="AUC lower certificate from scores")
    p.add_argument("file")
    p.add_argument("--rho-conditional", type=float, required=True, dest="rho_conditional")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(handler=_cmd_certify_auc)

    p = sub.add_parser("oracle", help="exact discrete worst case for an instance JSON")
    p.add_argument("instance")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("label-shift", help="label-shift scatter and certificate curve")
    p.add_argument("--dataset", required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unseen-classes", type=int, default=2, dest="unseen_classes")
    p.add_argument(
        "--dirichlet-concentration", type=float, default=10.0, dest="dirichlet_concentration"
    )
    p.add_argument("--scatter-csv", required=True, dest="scatter_csv")
    p.add_argument("--curve-csv", required=True, dest="curve_csv")
    add_common(p)
    p.set_defaults(handler=_cmd_label_shift)

    p = sub.add_parser("mixture", help="disjoint-support mixture experiment")
    p.add_argument("--gamma-grid", default="0.05:1.0:0.05", dest="gamma_grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--csv", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_mixture)

    p = sub.add_parser("synthetic-compare", help="Gaussian-mixture certificate sweep")
    p.add_argument("--widths", default="16")
    p.add_argument("--depths", default="2")
    p.add_argument("--delta-grid", default="0.01,0.5,1.0,1.5,2.0", dest="delta_grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--budget-convention", choices=("squared", "plain"), default="squared",
                   dest="budget_convention")
    p.add_argument("--n-train", type=int, default=2000, dest="n_train")
    p.add_argument("--n-eval", type=int, default=10000, dest="n_eval")
    p.add_argument("--train-steps", type=int, default=2000, dest="train_steps")
    p.add_argument("--csv", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_synthetic_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OracleDisagreementError as exc:
        print(f"solver diagnostic: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
