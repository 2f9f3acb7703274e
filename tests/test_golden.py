"""Golden outputs of every CLI flow: report, CSVs and exit code per command line.

Each case runs ``hellcert`` on the inputs in ``golden/inputs`` inside a fresh
directory, with relative paths, and compares what it leaves there with
``golden/<case>/``.  Text outside numbers (keys, strings, null/true/false,
CSV headers, separators and line breaks) and the exit code must match
exactly.  Numbers must match within rel 1e-13, abs 1e-15, because the last
digits depend on the CPU: on an AVX-512 host (NumPy 2.4.6), disabling
NumPy's AVX-512 kernels and running OpenBLAS on its Haswell kernels moves
numbers in 6 of the 15 cases by up to 3 ulp (4.5e-16 relative), and the
oracle's ``certified_gap``, about 1e-15 by construction, by up to 2.8e-17.
A byte-exact golden would fail on some CPUs.

After an intended change of output, regenerate the goldens with

    PYTHONPATH=src python tests/test_golden.py [case ...]

which rewrites the named cases, or every case when none is named.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from hellcert.cli import COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
REL_TOL = 1e-13
ABS_TOL = 1e-15

# Their last digits depend on the CPU, as above: CI runs them again on other kernels.
pytestmark = pytest.mark.cpu_bits

CASES = {
    # The seven command lines of acceptance criterion 13.
    "certify": ["certify", "losses.csv", "--rho", "0.05"],
    "certify-accuracy": ["certify-accuracy", "preds.csv", "--rho", "0.05"],
    "certify-auc": ["certify-auc", "scores.csv", "--rho-conditional", "0.1", "--seed", "6"],
    "oracle": ["oracle", "inst.json"],
    "label-shift": ["label-shift", "--dataset", "preds.csv", "--trials", "40", "--seed", "5",
                    "--scatter-csv", "scatter.csv", "--curve-csv", "curve.csv"],
    "mixture": ["mixture", "--gamma-grid", "0.25,0.75", "--seed", "5", "--samples", "500",
                "--csv", "mix.csv"],
    "synthetic-compare": ["synthetic-compare", "--widths", "2", "--depths", "1",
                          "--delta-grid", "0.01,1.0", "--seed", "5", "--n-train", "150",
                          "--n-eval", "200", "--train-steps", "60", "--csv", "sweep.csv"],
    # The other branches of each flow.
    "certify-lower-jsonl": ["certify", "losses.jsonl", "--rho", "0.1", "--direction", "lower"],
    "certify-beyond-validity": ["certify", "losses.csv", "--rho", "0.9"],
    "certify-accuracy-beyond-validity": ["certify-accuracy", "preds.csv", "--rho", "0.9"],
    "certify-auc-vacuous": ["certify-auc", "scores.csv", "--rho-conditional", "0.9", "--seed", "6"],
    "oracle-off-support": ["oracle", "off_support.json"],
    "mixture-range-grid": ["mixture", "--gamma-grid", "0.1:0.9:0.2", "--seed", "3",
                           "--samples", "300", "--csv", "mix.csv"],
    "synthetic-compare-defaults": ["synthetic-compare", "--seed", "1", "--csv", "sweep.csv"],
    "synthetic-compare-depth-0": ["synthetic-compare", "--seed", "2", "--depths", "0,2",
                                  "--csv", "sweep.csv"],
}

# A number standing alone: not part of a word, a version string or a JSON key.
_NUMBER = re.compile(r"(?<![\w.\"])-?(?:\d+(?:\.\d+)?(?:e[-+]?\d+)?|nan|inf)(?![\w.\"])")


def run_case(args, work: Path) -> dict:
    """Run one command line in ``work``; return {output file name: text}, with the exit code."""
    shutil.copytree(INPUTS, work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        code = main(args + ["--output", "report.json"])
    finally:
        os.chdir(cwd)
    outputs = {"exit_code": f"{code}\n"}
    for path in sorted(work.iterdir()):
        if not (INPUTS / path.name).exists():
            outputs[path.name] = path.read_text(encoding="utf-8")
    return outputs


def _split(text):
    """(the text with every number replaced by a marker, the numbers as floats)."""
    return _NUMBER.sub("#", text), [float(m) for m in _NUMBER.findall(text)]


def _close(a, b):
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def assert_matches(name, got: str, want: str):
    got_text, got_numbers = _split(got)
    want_text, want_numbers = _split(want)
    assert got_text == want_text, f"{name}: text outside the numbers differs"
    for i, (a, b) in enumerate(zip(got_numbers, want_numbers)):
        assert _close(a, b), f"{name}: number {i} is {a!r}, golden {b!r}"


def assert_golden(case, outputs: dict):
    golden = GOLDEN / case
    assert sorted(outputs) == sorted(p.name for p in golden.iterdir())
    for name, text in outputs.items():
        assert_matches(f"{case}/{name}", text, (golden / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(tmp_path, case):
    assert_golden(case, run_case(CASES[case], tmp_path / case))


def test_cases_in_one_process_leave_the_command_table_as_it_was(tmp_path):
    """Every report starts from a copy of its command's decisions in COMMANDS.

    The cases run twice in one process, forward and then backward, and each
    must match its golden both times; a decision that a handler wrote into
    the table instead of its report would stay in the table for every later
    run.  The two default-size sweeps are left out: they take most of the
    suite's time, and the small sweep runs the same handler.
    """
    table = {name: dict(entry[4]) for name, entry in COMMANDS.items()}
    cases = sorted(set(CASES) - {"synthetic-compare-defaults", "synthetic-compare-depth-0"})
    for order, run in (("forward", cases), ("backward", cases[::-1])):
        for case in run:
            assert_golden(case, run_case(CASES[case], tmp_path / order / case))
    assert {name: entry[4] for name, entry in COMMANDS.items()} == table


def test_comparison_catches_a_moved_number():
    want = "a,b\n0.25,16\n"
    assert_matches("same", "a,b\n0.25000000000000006,16\n", want)
    for moved in ("a,b\n0.25000000000025,16\n", "a,b\n0.25,17\n", "a,c\n0.25,16\n", "a,b\n0.25,16\n\n"):
        with pytest.raises(AssertionError):
            assert_matches("moved", moved, want)


def regenerate(names):
    """Rewrite the goldens of the named cases, or of every case when none is named."""
    with tempfile.TemporaryDirectory() as tmp:
        for case, args in CASES.items():
            if names and case not in names:
                continue
            outputs = run_case(args, Path(tmp) / case)
            target = GOLDEN / case
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir()
            for name, text in outputs.items():
                (target / name).write_text(text, encoding="utf-8", newline="")
            print(f"{case}: exit {outputs['exit_code'].strip()}, {len(outputs) - 1} files", file=sys.stderr)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
