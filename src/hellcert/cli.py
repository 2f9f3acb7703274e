"""Command-line interface.

Each subcommand is one entry of :data:`COMMANDS` (``hellcert --help`` lists
them): its help, its handler, its arguments, from which the parser is built,
the library modules the handler uses and its report's fixed decisions.
:func:`main` builds every report's envelope: the tool version, the command,
its seed (null for a command without ``--seed``), the generator, a copy of
those decisions and a null timestamp.  The handler adds what it computes, and
the decisions that depend on its inputs, to that report; :func:`main` then
writes it and picks the exit code.

Importing this module imports only :mod:`hellcert.io` and :mod:`hellcert.rng`.
A library name the handlers use is imported at its first lookup (PEP 562), or
by :func:`main` for the command it runs, and kept as a module global that is
never overwritten.  Handlers look those globals up when they run, so a wrapper
set on one of them, even before :func:`main` runs, wraps every call to it.

:func:`main` registers :func:`gc.freeze` with :mod:`atexit`, once per
process.  The hook runs only when the process exits, before the interpreter's
final collections, which then skip the frozen heap and leave it to the OS:
about 20 ms of CPU per invocation on a 2-core x86-64 box (Python 3.11, README
"Startup and exit").  So in a process that has called :func:`main`, objects
held in reference cycles get no finalizer at exit; every file hellcert opens,
to read or to write, is closed in a ``with`` block before :func:`main`
returns, so nothing it does relies on such a finalizer.

Exit codes: 0 success, 1 input error (usage errors and allocation failures
included), 3 solver diagnostic.  Beyond a certificate's validity radius the
certify commands report the trivial bound, flagged ``vacuous``, and exit 0.
All randomness flows through seeded counter-based streams and reports carry
a null timestamp, so identical command lines produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import importlib
import math
import operator
import sys

from . import __version__
from .io import (FORMATS, InputFormatError, json_document, read_instance, read_losses, read_predictions,
                 read_scores, write_csv)
from .rng import GENERATOR_NAME, KEY_LIMIT

# The library names the handlers use, by module, each bound as described above.
_LIBRARY = {
    "bounds": ("LossStatistics", "certificate_band", "classification_error_upper"),
    "experiments": ("LabelShiftPoint", "MixtureCell", "label_shift_experiment", "mixture_experiment"),
    "finite_sample": ("ConfidenceBudget", "EmpiricalSample", "corollary_lower_bound", "corollary_upper_bound",
                      "max_valid_radius_empirical", "max_valid_radius_empirical_lower"),
    "losses": ("PredictionSample", "ScoredSample", "auc_estimate", "auc_pair_sample", "zero_one_stats"),
    "oracle": ("GAP_TOL", "DiscreteInstance", "OracleGapError", "worst_case_inf", "worst_case_sup"),
    "shifts": ("auc_composite_radius",),
    "synthetic": ("SweepRow", "compare_certificates"),
}
_HOME = {name: module for module, names in _LIBRARY.items() for name in names}


def _bind(module: str) -> None:
    library = importlib.import_module(f"{__package__}.{module}")
    for name in _LIBRARY[module]:
        globals().setdefault(name, getattr(library, name))


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_HOME[name])
    return globals()[name]


EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 3

# List flags: argparse converts their text (the default's too) with these, and
# names the flag and the converter when a conversion fails.


def integer_list(text):
    """Comma-separated integers."""
    return [int(v) for v in text.split(",")]


GRID_POINTS_MAX = 10**6


def grid(text):
    """'0.1,0.2,0.3' or 'start:stop:step', which ends at the last point not
    beyond stop, up to rounding, and has at most GRID_POINTS_MAX points."""
    if ":" not in text:
        return [float(v) for v in text.split(",")]
    start, stop, step = (float(v) for v in text.split(":"))
    quotient = (stop - start) / step if step > 0 else math.nan
    if not math.isfinite(quotient):
        raise argparse.ArgumentTypeError(f"{text!r}: step must be positive and the range finite")
    # Floor the count, so that no point lies beyond stop, allowing a quotient
    # rounded just below a whole number ((0.6 - 0.2) / 0.2 is 1.9999999999999998).
    # The cap keeps a quotient near the float maximum from overflowing.
    n = math.floor(min(quotient, GRID_POINTS_MAX) * (1.0 + 1e-9)) + 1
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} has no points")
    if n > GRID_POINTS_MAX:
        raise argparse.ArgumentTypeError(f"{text!r} has more than {GRID_POINTS_MAX} points")
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


_positive_finite = _must(lambda v: 0.0 < v < math.inf, "be positive and finite")
_shift = _must(lambda v: 0.0 <= v < math.inf, "be finite and non-negative")
_radius = _must(lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_confidence = _must(lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
_seed = _must(lambda v: 0 <= v < KEY_LIMIT, "lie in [0, 2**64)")


def _certify(args, report: dict, sample: EmpiricalSample, radius: float, direction: str, **inputs):
    """The flow every certify command ends in: the finite-sample bound at ``radius``.

    The report copies the certificate's: beyond the validity radius the
    bound is the trivial one, the ceiling (upper) or 0 (lower), with a null
    ``raw_bound``, and ``vacuous`` says so.  It holds at any radius, and
    beyond a closed form's validity radius it is the exact worst case over
    every law on [0, M] with the same mean and variance.  ``inputs`` adds to
    the sample's statistics in the report.
    """
    upper = direction == "upper"
    budget = ConfidenceBudget(args.delta)
    # perfbench's CLI_SPANS times these by name; drop them for cert.max_valid_radius once spans live in the library.
    valid_radius = max_valid_radius_empirical if upper else max_valid_radius_empirical_lower
    cert = (corollary_upper_bound if upper else corollary_lower_bound)(sample, radius, budget)
    report["inputs"] = {"n": sample.n, "max_loss": sample.ceiling, "delta": args.delta,
                        "empirical_mean": sample.empirical_mean,
                        "unbiased_variance": sample.unbiased_variance, **inputs}
    report.update(direction=direction, radius=radius, max_valid_radius=valid_radius(sample, budget),
                  vacuous=cert.vacuous, bound=cert.bound, raw_bound=cert.raw_bound, confidence=cert.confidence)
    report["decisions"]["delta_split"] = "two_way" if upper else "three_way"


def _cmd_certify(args, report: dict):
    losses = read_losses(args.input, args.format, ceiling=args.max_loss)
    sample = EmpiricalSample(losses, ceiling=args.max_loss)
    _certify(args, report, sample, args.rho, args.direction)


def _cmd_certify_accuracy(args, report: dict):
    preds, labels = read_predictions(args.input, args.format)
    sample = zero_one_stats(PredictionSample(preds, labels))
    error = sample.empirical_mean
    upper = classification_error_upper(error, args.rho).bound
    report.update(empirical_error_rate=error, population_reference_upper=upper)
    _certify(args, report, sample, args.rho, args.direction)


def _cmd_certify_auc(args, report: dict):
    scored = ScoredSample(*read_scores(args.input, args.format))
    pairs = auc_pair_sample(scored, args.seed)
    composite = auc_composite_radius(args.rho_conditional)
    report.update(radius_conditional=args.rho_conditional, auc_point_estimate=auc_estimate(scored))
    _certify(args, report, pairs, composite, "lower",
             n_positive=int(scored.positives.size), n_negative=int(scored.negatives.size))


def _extremum(result, point: str) -> dict:
    return {"value": result.value, point: list(result.maximizer.probs), "method": result.method,
            "certified_gap": result.certified_gap, "root_steps": result.root_steps}


def _cmd_oracle(args, report: dict):
    inst = DiscreteInstance(*read_instance(args.input))
    sup = worst_case_sup(inst)
    inf = worst_case_inf(inst)
    mean, variance = inst.moments()
    stats = LossStatistics(mean, variance, inst.ceiling)
    lower, lower_trivial, upper, upper_trivial = certificate_band(stats, inst.rho)
    report["decisions"]["duality_gap_tol"] = GAP_TOL * inst.ceiling
    report.update(
        instance={"p": inst.p.probs, "losses": inst.losses, "M": inst.ceiling, "rho": inst.rho},
        sup=_extremum(sup, "maximizer"),
        inf=_extremum(inf, "minimizer"),
        certificates={"mean": mean, "variance": variance, "upper": upper,
                      "upper_is_trivial": upper_trivial, "lower": lower,
                      "lower_is_trivial": lower_trivial},
    )


def _write_records(path, cls, records) -> None:
    """One CSV row per dataclass record, one column per field in declaration order."""
    names = [field.name for field in dataclasses.fields(cls)]
    write_csv(path, names, map(operator.attrgetter(*names), records))


def _cmd_label_shift(args, report: dict):
    preds, labels = read_predictions(args.input, args.format)
    result = label_shift_experiment(preds, labels, trials=args.trials, seed=args.seed,
                                    unseen_classes=args.unseen_classes,
                                    dirichlet_concentration=args.dirichlet_concentration)
    write_csv(args.scatter_csv, [field.name for field in dataclasses.fields(LabelShiftPoint)],
              zip(result.hellinger.tolist(), result.loss.tolist(), result.mechanism))
    write_csv(args.curve_csv, ("rho", "lower", "lower_is_trivial", "upper", "upper_is_trivial"),
              result.curve)
    report["decisions"]["dirichlet_concentration"] = args.dirichlet_concentration
    stats = result.stats
    report.update(trials=args.trials, unseen_classes=args.unseen_classes,
                  inputs={"n": int(len(preds)), "n_classes": int(result.class_priors.size),
                          "empirical_mean": stats.mean, "variance": stats.variance,
                          "max_loss": stats.ceiling},
                  scatter_csv=args.scatter_csv, curve_csv=args.curve_csv)


def _cmd_mixture(args, report: dict):
    cells = mixture_experiment(args.gamma_grid, seed=args.seed, n_samples=args.samples)
    _write_records(args.csv, MixtureCell, cells)
    report.update(gamma_grid=args.gamma_grid, samples=args.samples, csv=args.csv)


def _cmd_synthetic_compare(args, report: dict):
    sizes = dict(widths=args.widths, depths=args.depths, delta_grid=args.delta_grid,
                 n_train=args.n_train, n_eval=args.n_eval)
    rows = compare_certificates(**sizes, seed=args.seed, confidence_delta=args.delta,
                                train_steps=args.train_steps)
    _write_records(args.csv, SweepRow, rows)
    report["decisions"]["training"] = f"full-batch gradient descent, {args.train_steps} steps"
    report.update(sizes, confidence_delta=args.delta, csv=args.csv)


def _arg(*flags, check=None, **options):
    """One argument: argparse's flags and options, and a range check of its parsed value."""
    return flags, options, check


# Every subcommand that reads a file stores it as args.input, which main
# names when a handler finds the whole sample at fault.
_FILE = _arg("input", metavar="file")
_RHO = _arg("--rho", type=float, required=True, check=_radius)
_DELTA = _arg("--delta", type=float, default=0.01, check=_confidence)
_DIRECTION = _arg("--direction", choices=("upper", "lower"), default="upper")
_SEED = _arg("--seed", type=int, default=0, check=_seed)
_CSV = _arg("--csv", required=True)
_FORMAT = _arg("--format", default="auto", choices=("auto", *FORMATS, "jsonl"))
_OUTPUT = _arg("--output", default=None, help="write the JSON report here (default: stdout)")

# Decisions of several commands: every certify report's rule beyond the validity
# radius, and the AUC's rule for ties, which certify-auc and mixture share.
_RADIUS_POLICY = {"radius_policy": "trivial_bound_beyond_validity"}
_AUC_TIES = {"auc_tie_policy": "ties_count_as_success"}

# name -> (help, handler, arguments, the _LIBRARY modules the handler uses,
# the report's fixed decisions); every subcommand also takes --output.
COMMANDS = {
    "certify": ("finite-sample certificate for a file of losses", _cmd_certify, [
        _FILE, _RHO, _DELTA, _arg("--max-loss", type=float, default=1.0, check=_positive_finite),
        _DIRECTION, _FORMAT,
    ], ("bounds", "finite_sample"), _RADIUS_POLICY),
    "certify-accuracy": ("0-1 loss certificate from (pred, label) records", _cmd_certify_accuracy, [
        _FILE, _RHO, _DELTA, _DIRECTION, _FORMAT,
    ], ("bounds", "finite_sample", "losses"), _RADIUS_POLICY),
    "certify-auc": ("AUC lower certificate from (score, label) records", _cmd_certify_auc, [
        _FILE, _arg("--rho-conditional", type=float, required=True, check=_radius), _DELTA, _SEED,
        _FORMAT,
    ], ("bounds", "finite_sample", "losses", "shifts"), {
        **_RADIUS_POLICY, **_AUC_TIES, "auc_pairing": "disjoint_random_pairs",
        "auc_formulation": "lower_bound_on_success_indicator"}),
    "oracle": ("exact discrete worst case for an instance JSON", _cmd_oracle, [
        _arg("input", metavar="instance"),
    ], ("bounds", "oracle"), {}),
    "label-shift": ("random label-shift scatter vs. certificate curve", _cmd_label_shift, [
        _arg("--dataset", dest="input", metavar="DATASET", required=True), _FORMAT, _SEED,
        _arg("--trials", type=int, default=10000, check=_at_least(1)),
        _arg("--unseen-classes", type=int, default=2, check=_at_least(0)),
        _arg("--dirichlet-concentration", type=float, default=10.0, check=_positive_finite),
        _arg("--scatter-csv", required=True), _arg("--curve-csv", required=True),
    ], ("experiments",), {"unseen_class_loss": "ceiling", "mechanism_cycle": "trial_index_mod_3"}),
    "mixture": ("disjoint-support mixture curve (0-1 loss and AUC)", _cmd_mixture, [
        _arg("--gamma-grid", type=grid, default="0.05:1.0:0.05", check=_radius),
        _arg("--samples", type=int, default=10000, check=_at_least(1)),
        _SEED, _CSV,
    ], ("experiments",), {**_AUC_TIES, "mixture_reference": "classifier perfect on P, inverted on Q"}),
    "synthetic-compare": ("Gaussian-mixture sweep against Wasserstein baselines",
                          _cmd_synthetic_compare, [
        _arg("--widths", type=integer_list, default="16", check=_at_least(1)),
        _arg("--depths", type=integer_list, default="2", check=_at_least(0)),
        _arg("--delta-grid", type=grid, default="0.01,0.5,1.0,1.5,2.0", check=_shift),
        _arg("--n-train", type=int, default=2000, check=_at_least(1)),
        # The Gramian certificate needs a sample variance.
        _arg("--n-eval", type=int, default=10000, check=_at_least(2)),
        _arg("--train-steps", type=int, default=2000, check=_at_least(0)),
        _SEED, _DELTA, _CSV,
    ], ("synthetic",), {"wasserstein_budget": "squared", "dual_gamma_grid": "geometric 24 points, L* to 64 L*"}),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so that it exits 1 like any input
    error, where argparse's own would exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hellcert",
                     description="Certified worst-case loss bounds over Hellinger balls.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, options, _ in (*arguments, _OUTPUT):
            p.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    # The exit hook of the module docstring; unregistering it first keeps one
    # registration however often main runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = build_parser().parse_args(argv)
        _, handler, arguments, modules, decisions = COMMANDS[args.command]
        for flags, _, check in arguments:
            if check is not None:  # argparse's dest for the flag: --n-eval -> n_eval
                check(flags[0], getattr(args, flags[0].lstrip("-").replace("-", "_")))
        for module in modules:
            _bind(module)
        report = {"tool_version": __version__, "command": args.command, "seed": getattr(args, "seed", None),
                  "rng": GENERATOR_NAME, "decisions": dict(decisions), "timestamp": None}
        try:
            handler(args, report)
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
        return EXIT_OK
    except RuntimeError as exc:  # the oracle's, bound only by a command that imports it
        if not isinstance(exc, globals().get("OracleGapError", ())):
            raise
        print(f"solver diagnostic: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError, MemoryError) as exc:  # NumPy's MemoryError names the array it could not allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
