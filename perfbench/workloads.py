"""The benchmark's workloads: each is a list of rounds of operations.

An operation is a timed call plus an untimed check of its output.  A run
repeats whole rounds until its time is up, so every run attempts the same
mix of operations.

* ``cli-mix``: every data-side subcommand through ``hellcert.cli.main``,
  each in a fresh interpreter as a user's invocation runs.
* ``oracle-batch``: ``worst_case_sup`` and ``worst_case_inf`` in this
  process on a fixed, seeded set of distinct instances; one instance is one
  operation.
* ``sweep``: one ``synthetic-compare --widths 16 --depths 2`` per round, in
  a fresh interpreter, with a seed no other operation in the run uses.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

import checks
import gen_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CLI_ENTRY = "import sys; from hellcert.cli import main; sys.exit(main(sys.argv[1:]))"

CERTIFY_RHO = 0.05
LOWER_RHO = 0.1
ACCURACY_RHO = 0.1
AUC_RHO = 0.05
DELTA = 0.01
LABEL_SHIFT_TRIALS = 10000


@dataclass
class Op:
    kind: str
    run: Callable[[], object]  # timed
    check: Callable[[object], list]  # untimed output check; returns the problems found
    trace: Callable[[], dict] = None  # span summary of a traced child


@dataclass
class Context:
    inputs: str  # generated input directory
    work: str  # working directory for the program's outputs
    seed: int
    traced: bool = False
    peaks: bool = False  # traced children record memory peaks

    def path(self, name):
        return os.path.join(self.inputs, name)

    def out(self, name):
        return os.path.join(self.work, name)


class ChildResult(NamedTuple):
    exit_code: int
    peak_rss_mb: float
    cpu_s: float  # user plus system CPU seconds of the child


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log_path=os.devnull):
    """Start a Python child and wait for it; return its exit code, peak RSS and CPU time.

    ``os.wait4`` gives the child's own figures, which input generation and
    other children do not share.
    """
    with open(log_path, "ab") as log:
        proc = subprocess.Popen([sys.executable, *argv], env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


def setup_op():
    """Fresh interpreter to ``import hellcert.cli`` done: what every CLI invocation pays."""
    return Op("setup", lambda: run_child(["-c", "import hellcert.cli"]), lambda result: [])


def cli_op(ctx, kind, cli_args, check):
    """Run ``hellcert <cli_args>``; traced, through cli_child.py with spans."""
    summary = ctx.out(f"trace-{kind}.json")

    def run():
        if ctx.traced:
            flags = ["--peaks"] if ctx.peaks else []
            argv = [os.path.join(HERE, "cli_child.py"), summary, *flags, "--", *cli_args]
        else:
            argv = ["-c", CLI_ENTRY, *cli_args]
        return run_child(argv, ctx.out("stderr.log"))

    return Op(kind, run, lambda result: check(), (lambda: checks.load_json(summary)) if ctx.traced else None)


def cli_round(ctx):
    truth = checks.load_json(ctx.path("truth.json"))
    flips, n = truth["accuracy_flips"], truth["accuracy_n"]
    losses = np.load(ctx.path("losses.npy"))
    jsonl = np.load(ctx.path("losses_jsonl.npy"))
    scores, labels = np.load(ctx.path("scores.npy"))

    def report(name):
        return checks.load_json(ctx.out(name))

    ops = [
        cli_op(ctx, "certify", ["certify", ctx.path("losses.csv"), "--rho", str(CERTIFY_RHO),
                                "--delta", str(DELTA), "--output", ctx.out("certify.json")],
               lambda: checks.check_certify(report("certify.json"), losses, CERTIFY_RHO, DELTA, "upper")),
        cli_op(ctx, "certify-lower", ["certify", ctx.path("losses.jsonl"), "--rho", str(LOWER_RHO),
                                      "--delta", str(DELTA), "--direction", "lower",
                                      "--output", ctx.out("lower.json")],
               lambda: checks.check_certify(report("lower.json"), jsonl, LOWER_RHO, DELTA, "lower")),
        cli_op(ctx, "certify-accuracy", ["certify-accuracy", ctx.path("preds.csv"), "--rho",
                                         str(ACCURACY_RHO), "--output", ctx.out("accuracy.json")],
               lambda: checks.check_accuracy(report("accuracy.json"), flips, n)),
        cli_op(ctx, "certify-auc", ["certify-auc", ctx.path("scores.csv"), "--rho-conditional",
                                    str(AUC_RHO), "--seed", str(ctx.seed), "--output", ctx.out("auc.json")],
               lambda: checks.check_auc(report("auc.json"), scores, labels)),
    ]
    for i in range(len(gen_inputs.CLI_ORACLE_SHAPES)):
        inst_path = ctx.path(f"instance_{i}.json")
        ops.append(cli_op(
            ctx, f"oracle-{i}", ["oracle", inst_path, "--output", ctx.out(f"oracle_{i}.json")],
            lambda i=i, inst_path=inst_path: checks.check_oracle_report(
                checks.load_json(inst_path), report(f"oracle_{i}.json")),
        ))
    ops.append(cli_op(
        ctx, "label-shift",
        ["label-shift", "--dataset", ctx.path("preds.csv"), "--trials", str(LABEL_SHIFT_TRIALS),
         "--seed", str(ctx.seed), "--scatter-csv", ctx.out("scatter.csv"),
         "--curve-csv", ctx.out("curve.csv"), "--output", ctx.out("label_shift.json")],
        lambda: checks.check_label_shift(ctx.out("scatter.csv"), flips, n),
    ))
    ops.append(cli_op(
        ctx, "mixture",
        ["mixture", "--seed", str(ctx.seed), "--csv", ctx.out("mixture.csv"),
         "--output", ctx.out("mixture.json")],
        lambda: checks.check_mixture(ctx.out("mixture.csv")),
    ))
    return ops


def oracle_round(ctx):
    from hellcert import oracle

    ops = []
    for spec in checks.load_json(ctx.path("oracle_round.json")):
        inst = oracle.DiscreteInstance(spec["p"], spec["losses"], spec["M"], spec["rho"])

        def run(inst=inst):
            # Looked up at call time, so the traced run's spans see the calls.
            return oracle.worst_case_sup(inst), oracle.worst_case_inf(inst)

        def check(result, spec=spec):
            sup, inf = result
            return checks.check_oracle(spec, sup.value, sup.maximizer.probs, inf.value, inf.maximizer.probs)

        ops.append(Op("oracle", run, check))
    return ops


def sweep_op(ctx, index):
    seed = ctx.seed * 1000 + index
    csv_path = ctx.out(f"sweep_{index}.csv")
    return cli_op(
        ctx, "sweep",
        ["synthetic-compare", "--widths", "16", "--depths", "2", "--seed", str(seed),
         "--csv", csv_path, "--output", ctx.out(f"sweep_{index}.json")],
        lambda: checks.check_sweep(csv_path),
    )

