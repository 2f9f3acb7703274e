"""Command-line interface.

Each subcommand is one entry of :data:`COMMANDS` (``hellcert --help`` lists
them): its help, its handler and its arguments, from which the parser is
built.  A handler returns the report and the exit code, and :func:`main`
writes the report.  Handlers look the library functions up as module
globals when they run, so wrapping one of those names here wraps every call
the CLI makes to it.

Exit codes: 0 success, 1 input error (usage errors included), 2
validity-radius violation, 3 solver diagnostic.  All randomness flows
through seeded counter-based streams and reports carry a null timestamp,
so identical command lines produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import sys

from . import __version__
from .bounds import LossStatistics, RadiusValidityError, classification_error_upper
from .experiments import (LabelShiftPoint, MixtureCell, certificate_band, label_shift_experiment,
                          mixture_experiment)
from .finite_sample import (ConfidenceBudget, EmpiricalSample, corollary_lower_bound,
                            corollary_upper_bound, max_valid_radius_empirical,
                            max_valid_radius_empirical_lower)
from .io import (FORMATS, InputFormatError, base_report, json_document, read_losses,
                 read_predictions, read_scores, read_text, write_csv)
from .losses import PredictionSample, ScoredSample, auc_estimate, auc_pair_sample, zero_one_stats
from .oracle import GAP_TOL, DiscreteInstance, OracleGapError, worst_case_inf, worst_case_sup
from .shifts import auc_composite_radius
from .synthetic import SweepRow, compare_certificates

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RADIUS = 2
EXIT_SOLVER = 3

_AUC_DECISIONS = {
    "auc_tie_policy": "ties_count_as_success",
    "auc_pairing": "disjoint_random_pairs",
    "auc_formulation": "lower_bound_on_success_indicator",
}


# List flags: argparse converts their text (the default's too) with these, and
# names the flag and the converter when a conversion fails.


def integer_list(text):
    """Comma-separated integers."""
    return [int(v) for v in text.split(",")]


def grid(text):
    """'0.1,0.2,0.3' or 'start:stop:step' (stop inclusive up to rounding)."""
    if ":" not in text:
        return [float(v) for v in text.split(",")]
    start, stop, step = (float(v) for v in text.split(":"))
    if not (step > 0 and math.isfinite((stop - start) / step)):
        raise argparse.ArgumentTypeError(f"{text!r}: step must be positive and the range finite")
    n = int(round((stop - start) / step)) + 1
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} has no points")
    return [start + i * step for i in range(n)]


# Range checks, applied to the parsed values: each takes a flag and its value
# (or list of values) and raises a ValueError that names the flag.


def _must(holds, what):
    """A check that every value satisfies ``holds`` (NaN satisfies no comparison)."""
    def check(flag, value):
        for v in value if isinstance(value, list) else [value]:
            if not holds(v):
                raise ValueError(f"{flag} must {what}, got {v}")

    return check


def _at_least(minimum):
    return _must(lambda v: v >= minimum, f"be at least {minimum}")


_positive = _must(lambda v: v > 0.0, "be positive")
_ceiling = _must(lambda v: 0.0 < v < math.inf, "be positive and finite")
_radius = _must(lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_confidence = _must(lambda v: 0.0 < v < 1.0, "lie in (0, 1)")


def _certify(args, report: dict, sample: EmpiricalSample, radius: float, direction: str,
             floor_at_zero: bool = False, **inputs):
    """The flow every certify command ends in: the finite-sample bound at ``radius``.

    Beyond the validity radius the bound is null and the exit code 2, unless
    ``floor_at_zero``: then the report carries the lower bound 0, sound at
    any radius, and says so in ``vacuous``.  ``inputs`` adds to the sample's
    statistics in the report.
    """
    upper = direction == "upper"
    budget = ConfidenceBudget(args.delta)
    valid_radius = max_valid_radius_empirical if upper else max_valid_radius_empirical_lower
    bound = corollary_upper_bound if upper else corollary_lower_bound
    report["inputs"] = {"n": sample.n, "max_loss": sample.ceiling, "delta": args.delta,
                        "empirical_mean": sample.empirical_mean,
                        "unbiased_variance": sample.unbiased_variance, **inputs}
    report.update(direction=direction, radius=radius, max_valid_radius=valid_radius(sample, budget))
    report["decisions"]["delta_split"] = "two_way" if upper else "three_way"
    try:
        cert = bound(sample, radius, budget)
    except RadiusValidityError:
        if floor_at_zero:
            report.update(bound=0.0, raw_bound=None, confidence=1.0 - budget.delta, vacuous=True)
            return report, EXIT_OK
        report.update(bound=None, raw_bound=None, confidence=None)
        return report, EXIT_RADIUS
    report.update(bound=cert.bound, raw_bound=cert.raw_bound, confidence=cert.confidence)
    return report, EXIT_OK


def _cmd_certify(args):
    losses = read_losses(args.input, args.format, ceiling=args.max_loss)
    sample = EmpiricalSample(losses, ceiling=args.max_loss)
    report = base_report("certify", None, {"radius_policy": "reject_beyond_validity"})
    return _certify(args, report, sample, args.rho, args.direction)


def _cmd_certify_accuracy(args):
    preds, labels = read_predictions(args.input, args.format)
    sample = zero_one_stats(PredictionSample(preds, labels))
    try:
        population_reference = classification_error_upper(sample.empirical_mean, args.rho).bound
    except RadiusValidityError:
        population_reference = None
    report = base_report("certify-accuracy", None, {"radius_policy": "reject_beyond_validity"})
    report.update(empirical_error_rate=sample.empirical_mean,
                  population_reference_upper=population_reference)
    return _certify(args, report, sample, args.rho, args.direction)


def _cmd_certify_auc(args):
    scored = ScoredSample(*read_scores(args.input, args.format))
    pairs = auc_pair_sample(scored, args.seed)
    composite = auc_composite_radius(args.rho_conditional)
    report = base_report("certify-auc", args.seed, dict(_AUC_DECISIONS))
    report.update(radius_conditional=args.rho_conditional, auc_point_estimate=auc_estimate(scored),
                  vacuous=False)
    return _certify(args, report, pairs, composite, "lower", floor_at_zero=True,
                    n_positive=int(scored.positives.size), n_negative=int(scored.negatives.size))


def _extremum(result, point: str) -> dict:
    return {"value": result.value, point: list(result.maximizer.probs), "method": result.method,
            "certified_gap": result.certified_gap, "root_steps": result.root_steps}


def _cmd_oracle(args):
    text = read_text(args.input)
    try:
        inst = DiscreteInstance.from_json(text)
    except RecursionError:
        raise ValueError("bad instance file: nested too deeply") from None
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"bad instance file: {exc}") from None
    sup = worst_case_sup(inst)
    inf = worst_case_inf(inst)
    mean = float(inst.p.probs @ inst.losses)
    variance = float(inst.p.probs @ (inst.losses - mean) ** 2)
    stats = LossStatistics(mean, variance, inst.ceiling)
    lower, lower_trivial, upper, upper_trivial = certificate_band(stats, inst.rho)
    report = base_report("oracle", None, {"duality_gap_tol": GAP_TOL})
    report.update(
        instance=json.loads(inst.to_json()),
        sup=_extremum(sup, "maximizer"),
        inf=_extremum(inf, "minimizer"),
        certificates={"mean": mean, "variance": variance, "upper": upper,
                      "upper_is_trivial": upper_trivial, "lower": lower,
                      "lower_is_trivial": lower_trivial},
    )
    return report, EXIT_OK


def _write_records(path, cls, records) -> None:
    """One CSV row per dataclass record, one column per field in declaration order."""
    names = [field.name for field in dataclasses.fields(cls)]
    write_csv(path, names, map(operator.attrgetter(*names), records))


def _cmd_label_shift(args):
    preds, labels = read_predictions(args.input, args.format)
    result = label_shift_experiment(preds, labels, trials=args.trials, seed=args.seed,
                                    unseen_classes=args.unseen_classes,
                                    dirichlet_concentration=args.dirichlet_concentration)
    _write_records(args.scatter_csv, LabelShiftPoint, result.points)
    write_csv(args.curve_csv, ("rho", "lower", "lower_is_trivial", "upper", "upper_is_trivial"),
              result.curve)
    report = base_report("label-shift", args.seed, {
        "unseen_class_loss": "ceiling",
        "mechanism_cycle": "trial_index_mod_3",
        "dirichlet_concentration": args.dirichlet_concentration,
    })
    stats = result.stats
    report.update(trials=args.trials, unseen_classes=args.unseen_classes,
                  inputs={"n": int(len(preds)), "n_classes": int(result.class_priors.size),
                          "empirical_mean": stats.mean, "variance": stats.variance,
                          "max_loss": stats.ceiling},
                  scatter_csv=args.scatter_csv, curve_csv=args.curve_csv)
    return report, EXIT_OK


def _cmd_mixture(args):
    cells = mixture_experiment(args.gamma_grid, seed=args.seed, n_samples=args.samples)
    _write_records(args.csv, MixtureCell, cells)
    report = base_report("mixture", args.seed, dict(
        _AUC_DECISIONS, mixture_reference="classifier perfect on P, inverted on Q"))
    report.update(gamma_grid=args.gamma_grid, samples=args.samples, csv=args.csv)
    return report, EXIT_OK


def _cmd_synthetic_compare(args):
    sizes = dict(widths=args.widths, depths=args.depths, delta_grid=args.delta_grid,
                 n_train=args.n_train, n_eval=args.n_eval)
    rows = compare_certificates(**sizes, seed=args.seed, budget_convention=args.budget_convention,
                                confidence_delta=args.delta, train_steps=args.train_steps)
    _write_records(args.csv, SweepRow, rows)
    report = base_report("synthetic-compare", args.seed, {
        "wasserstein_budget": args.budget_convention,
        "dual_gamma_grid": "geometric 24 points, L* to 64 L*",
        "training": f"full-batch gradient descent, {args.train_steps} steps",
    })
    report.update(sizes, confidence_delta=args.delta, csv=args.csv)
    return report, EXIT_OK


def _arg(*flags, check=None, **options):
    """One argument: argparse's flags and options, and a range check of its parsed value."""
    return flags, options, check


# Every subcommand that reads a file stores it as args.input, which main
# names when a handler finds the whole sample at fault.
_FILE = _arg("input", metavar="file")
_RHO = _arg("--rho", type=float, required=True, check=_radius)
_DELTA = _arg("--delta", type=float, default=0.01, check=_confidence)
_DIRECTION = _arg("--direction", choices=("upper", "lower"), default="upper")
_SEED = _arg("--seed", type=int, default=0, check=_at_least(0))
_CSV = _arg("--csv", required=True)
_FORMAT = _arg("--format", default="auto", choices=("auto", *FORMATS, "jsonl"))
_OUTPUT = _arg("--output", default=None, help="write the JSON report here (default: stdout)")

# name -> (help, handler, arguments); every subcommand also takes --output.
COMMANDS = {
    "certify": ("finite-sample certificate for a file of losses", _cmd_certify, [
        _FILE, _RHO, _DELTA, _arg("--max-loss", type=float, default=1.0, check=_ceiling),
        _DIRECTION, _FORMAT,
    ]),
    "certify-accuracy": ("0-1 loss certificate from (pred, label) records", _cmd_certify_accuracy, [
        _FILE, _RHO, _DELTA, _DIRECTION, _FORMAT,
    ]),
    "certify-auc": ("AUC lower certificate from (score, label) records", _cmd_certify_auc, [
        _FILE, _arg("--rho-conditional", type=float, required=True, check=_radius), _DELTA, _SEED,
        _FORMAT,
    ]),
    "oracle": ("exact discrete worst case for an instance JSON", _cmd_oracle, [
        _arg("input", metavar="instance"),
    ]),
    "label-shift": ("random label-shift scatter vs. certificate curve", _cmd_label_shift, [
        _arg("--dataset", dest="input", metavar="DATASET", required=True), _FORMAT, _SEED,
        _arg("--trials", type=int, default=10000, check=_at_least(1)),
        _arg("--unseen-classes", type=int, default=2, check=_at_least(0)),
        _arg("--dirichlet-concentration", type=float, default=10.0, check=_positive),
        _arg("--scatter-csv", required=True), _arg("--curve-csv", required=True),
    ]),
    "mixture": ("disjoint-support mixture curve (0-1 loss and AUC)", _cmd_mixture, [
        _arg("--gamma-grid", type=grid, default="0.05:1.0:0.05"),
        _arg("--samples", type=int, default=10000, check=_at_least(1)),
        _SEED, _CSV,
    ]),
    "synthetic-compare": ("Gaussian-mixture sweep against Wasserstein baselines",
                          _cmd_synthetic_compare, [
        _arg("--widths", type=integer_list, default="16", check=_at_least(1)),
        _arg("--depths", type=integer_list, default="2", check=_at_least(0)),
        _arg("--delta-grid", type=grid, default="0.01,0.5,1.0,1.5,2.0"),
        _arg("--budget-convention", choices=("squared", "plain"), default="squared"),
        _arg("--n-train", type=int, default=2000, check=_at_least(1)),
        # The Gramian certificate needs a sample variance.
        _arg("--n-eval", type=int, default=10000, check=_at_least(2)),
        _arg("--train-steps", type=int, default=2000, check=_at_least(0)),
        _SEED, _DELTA, _CSV,
    ]),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so that it exits 1 like any input
    error: argparse's own exit code 2 means a radius beyond validity here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hellcert",
                     description="Certified worst-case loss bounds over Hellinger balls.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, options, _ in (*arguments, _OUTPUT):
            p.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _, handler, arguments = COMMANDS[args.command]
        for flags, _, check in arguments:
            if check is not None:  # argparse's dest for the flag: --n-eval -> n_eval
                check(flags[0], getattr(args, flags[0].lstrip("-").replace("-", "_")))
        try:
            report, code = handler(args)
        except ValueError as exc:  # a fault of the whole input: name its file, as a reader does
            if isinstance(exc, InputFormatError) or getattr(args, "input", None) is None:
                raise
            raise InputFormatError(args.input, 0, exc) from exc
        text = json_document(report)
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except OracleGapError as exc:
        print(f"solver diagnostic: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
