import ast
import collections
import csv
import functools
import gzip
import json
import math
import os
import random
import re
import sys
import threading
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hellcert import cli
from hellcert import io as hio
from hellcert.cli import main
from hellcert.bounds import c_rho
from hellcert.finite_sample import (
    ConfidenceBudget,
    EmpiricalSample,
    corollary_upper_bound,
    max_valid_radius_empirical,
    max_valid_radius_empirical_lower,
)
from hellcert.io import (
    InputFormatError,
    detect_format,
    format_number,
    json_document,
    read_instance,
    read_losses,
    read_predictions,
    read_scores,
    write_csv,
)
from hellcert.losses import PredictionSample, zero_one_stats
from hellcert.oracle import GAP_TOL, DiscreteInstance
from hellcert.rng import stream
from test_golden import CASES, run_case


# ---------------------------------------------------------------- io helpers


def test_format_number_round_trips():
    gen = stream(1)
    for x in list(gen.random(200)) + [1e-300, 1e300, 0.1, 2.0 / 3.0]:
        assert float(format_number(x)) == x
    assert format_number(True) == "true"
    assert format_number(7) == "7"


def test_json_document_round_trip_and_determinism():
    doc = {"b": 0.1, "a": [1, 2.5, None, "x"], "nested": {"z": False, "y": 1e-17}}
    text = json_document(doc)
    assert text == json_document(doc)
    parsed = json.loads(text)
    assert parsed["b"] == 0.1
    assert parsed["nested"]["y"] == 1e-17
    # keys sorted
    assert text.index('"a"') < text.index('"b"') < text.index('"nested"')


def test_detect_format(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("loss\n0.5\n")
    assert detect_format(f) == "csv_losses"
    f.write_text("pred,label\n1,1\n")
    assert detect_format(f) == "csv_predictions"
    f.write_text("score,label\n0.3,-1\n")
    assert detect_format(f) == "csv_scores"
    j = tmp_path / "a.jsonl"
    j.write_text('{"loss": 0.5}\n')
    assert detect_format(j) == "jsonl"
    f.write_text("foo\n1\n")
    with pytest.raises(InputFormatError):
        detect_format(f)


def test_read_losses_csv_and_jsonl(tmp_path):
    f = tmp_path / "l.csv"
    f.write_text("loss\n0.25\n0.75\n")
    assert np.array_equal(read_losses(f), [0.25, 0.75])
    j = tmp_path / "l.jsonl"
    j.write_text('{"loss": 0.25}\n{"loss": 0.75}\n')
    assert np.array_equal(read_losses(j), [0.25, 0.75])


def test_read_losses_reports_line_number(tmp_path):
    f = tmp_path / "l.csv"
    f.write_text("loss\n0.25\nnot-a-number\n")
    with pytest.raises(InputFormatError, match=r":3:"):
        read_losses(f)


def test_read_predictions_and_scores(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("pred,label\n1,1\n0,1\n")
    preds, labels = read_predictions(f)
    assert list(preds) == [1, 0] and list(labels) == [1, 1]
    s = tmp_path / "s.csv"
    s.write_text("score,label\n0.9,1\n0.1,-1\n")
    scores, labels = read_scores(s)
    assert list(scores) == [0.9, 0.1] and list(labels) == [1, -1]
    bad = tmp_path / "bad.csv"
    bad.write_text("pred,label\n1\n")
    with pytest.raises(InputFormatError, match=r":2:"):
        read_predictions(bad)


def test_write_csv(tmp_path):
    f = tmp_path / "out.csv"
    write_csv(f, ("a", "b"), [(1.5, "x"), (0.1, "y")])
    text = f.read_bytes().decode()
    assert text == "a,b\n1.5,x\n0.10000000000000001,y\n"
    # Every kind of cell: floats of each width, None, flags and integers of Python and NumPy.
    rows = [(0.1, None, True, 3), (np.float64(0.1), None, np.False_, np.int64(-3)),
            (np.float32(0.1), "z", np.True_, 2**70), (0.5, None, False, 0)]
    write_csv(f, "abcd", rows)
    assert f.read_bytes().decode() == ("a,b,c,d\n0.10000000000000001,,true,3\n0.10000000000000001,,false,-3\n"
                                       "0.10000000149011612,z,true,1180591620717411303424\n0.5,,false,0\n")


# ---------------------------------------------------------------- cli flows


def losses_file(tmp_path, values):
    f = tmp_path / "losses.csv"
    f.write_text("loss\n" + "\n".join(str(v) for v in values) + "\n")
    return str(f)


def run_report(tmp_path, args):
    out = tmp_path / "report.json"
    code = main(args + ["--output", str(out)])
    return code, json.loads(out.read_text())


def test_certify_identical_losses_zero_radius(tmp_path):
    path = losses_file(tmp_path, [0.4] * 20)
    code, rep = run_report(tmp_path, ["certify", path, "--rho", "0"])
    assert code == 0
    # All radius-dependent slack vanishes: the bound is the empirical mean,
    # exactly (summation rounding puts that an ulp off the constant).
    assert rep["bound"] == rep["inputs"]["empirical_mean"]
    assert rep["bound"] == pytest.approx(0.4, abs=1e-14)
    assert rep["raw_bound"] == rep["bound"]
    assert rep["direction"] == "upper"
    assert rep["confidence"] == 0.99


def test_certify_mean_of_ceiling_losses_stays_at_the_ceiling(tmp_path):
    # np.mean of 100 copies of 0.001 is 0.0010000000000000002, above M.
    path = losses_file(tmp_path, [0.001] * 100)
    for direction in ("upper", "lower"):
        code, rep = run_report(
            tmp_path, ["certify", path, "--rho", "0.1", "--max-loss", "0.001", "--direction", direction]
        )
        assert code == 0
        assert rep["vacuous"] is (direction == "upper")  # no headroom above the mean
        assert rep["inputs"]["empirical_mean"] == 0.001


def test_certify_constant_sample_reports_zero_variance(tmp_path):
    # np.var of 100 copies of 0.001 is 4.7e-38: the mean rounds off the constant.
    path = losses_file(tmp_path, [0.001] * 100)
    code, rep = run_report(tmp_path, ["certify", path, "--rho", "0.1"])
    assert code == 0
    assert rep["inputs"]["unbiased_variance"] == 0.0


@pytest.mark.parametrize("direction, valid_radius, trivial", [
    ("upper", max_valid_radius_empirical, 2.0),
    ("lower", max_valid_radius_empirical_lower, 0.0),
], ids=["upper", "lower"])
def test_certify_beyond_validity_reports_the_trivial_bound(tmp_path, direction, valid_radius, trivial):
    path = losses_file(tmp_path, [0.4] * 200)
    code, rep = run_report(
        tmp_path, ["certify", path, "--rho", "0.999", "--max-loss", "2", "--direction", direction]
    )
    assert code == 0
    assert rep["bound"] == trivial and rep["inputs"]["max_loss"] == 2.0
    assert rep["vacuous"] is True and rep["raw_bound"] is None
    assert rep["confidence"] == 0.99
    assert rep["decisions"]["radius_policy"] == "trivial_bound_beyond_validity"
    sample = EmpiricalSample([0.4] * 200, ceiling=2.0)
    assert rep["max_valid_radius"] == valid_radius(sample, ConfidenceBudget(0.01))
    assert 0.0 < rep["max_valid_radius"] < 0.999


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("rho", [0.0, 0.3])
def test_certify_two_losses(tmp_path, direction, rho):
    """n = 2, the smallest sample with a variance: its validity radius is 0, so any positive radius is vacuous."""
    path = losses_file(tmp_path, [0.2, 0.7])
    code, rep = run_report(tmp_path, ["certify", path, "--rho", str(rho), "--direction", direction])
    assert code == 0
    assert rep["inputs"]["n"] == 2
    assert 0.0 <= rep["bound"] <= rep["inputs"]["max_loss"]
    assert rep["max_valid_radius"] == 0.0
    assert rep["vacuous"] is (rho > rep["max_valid_radius"])


def test_certify_lower_direction(tmp_path):
    path = losses_file(tmp_path, [0.5, 0.6, 0.4, 0.5, 0.55, 0.45] * 10)
    code, rep = run_report(
        tmp_path, ["certify", path, "--rho", "0.01", "--direction", "lower"]
    )
    assert code == 0
    assert rep["bound"] <= 0.5
    assert rep["decisions"]["delta_split"] == "three_way"


def test_certify_rejects_out_of_range_losses(tmp_path):
    path = losses_file(tmp_path, [0.5, 1.5])
    code = main(["certify", path, "--rho", "0.1"])
    assert code == 1


def test_certify_missing_file():
    assert main(["certify", "/nonexistent/file.csv", "--rho", "0.1"]) == 1


def test_golden_regression_bernoulli(tmp_path):
    # Deterministic fixture; byte-identical across runs and cross-checked
    # against a direct transcription of the finite-sample expression.
    gen = stream(42)
    values = (gen.random(1000) < 0.2).astype(float)
    path = losses_file(tmp_path, values)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["certify", path, "--rho", "0.05", "--delta", "0.01", "--output", str(out1)]) == 0
    assert main(["certify", path, "--rho", "0.05", "--delta", "0.01", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    rep = json.loads(out1.read_text())
    n = 1000
    lhat = float(values.mean())
    s2 = float(np.var(values, ddof=1))
    rho, delta, m = 0.05, 0.01, 1.0
    ln2d = math.log(2 / delta)
    cr = c_rho(rho)
    shrink = rho**2 * (2 - rho**2)
    delta_term = (2 * cr / math.sqrt(n - 1) - shrink / (2 * math.sqrt(n))) * m * math.sqrt(2 * ln2d)
    numer = s2 + 2 * m * math.sqrt(2 * s2 * ln2d / (n - 1)) + 2 * m**2 * ln2d / (n - 1)
    denom = lhat - m * (1 - math.sqrt(ln2d / (2 * n)))
    expect = lhat + 2 * cr * math.sqrt(s2) + delta_term + shrink * (m - lhat + numer / denom)
    assert rep["bound"] == pytest.approx(expect, abs=1e-12)


def test_certify_accuracy_all_correct(tmp_path):
    f = tmp_path / "preds.csv"
    f.write_text("pred,label\n" + "\n".join("3,3" for _ in range(50)) + "\n")
    code, rep = run_report(tmp_path, ["certify-accuracy", str(f), "--rho", "0.3"])
    assert code == 0
    assert rep["empirical_error_rate"] == 0.0
    assert rep["population_reference_upper"] == pytest.approx(0.1719, abs=1e-12)


def test_certify_accuracy_all_wrong(tmp_path):
    f = tmp_path / "preds.csv"
    f.write_text("pred,label\n" + "\n".join("0,1" for _ in range(50)) + "\n")
    code, rep = run_report(tmp_path, ["certify-accuracy", str(f), "--rho", "0"])
    assert code == 0
    assert rep["bound"] == 1.0  # saturated at the ceiling
    # Nothing is certifiable beyond radius 0 at 100% error: the report holds the ceiling.
    code, rep = run_report(tmp_path, ["certify-accuracy", str(f), "--rho", "0.3"])
    assert code == 0
    assert rep["bound"] == rep["inputs"]["max_loss"] == 1.0
    assert rep["vacuous"] is True and rep["raw_bound"] is None
    assert rep["max_valid_radius"] == 0.0
    assert rep["population_reference_upper"] == 1.0


def test_certify_accuracy_matches_certify_pipeline(tmp_path):
    gen = stream(10)
    preds = gen.integers(0, 3, size=80)
    labels = gen.integers(0, 3, size=80)
    f = tmp_path / "preds.csv"
    f.write_text(
        "pred,label\n" + "\n".join(f"{p},{l}" for p, l in zip(preds, labels)) + "\n"
    )
    code, rep = run_report(tmp_path, ["certify-accuracy", str(f), "--rho", "0.05"])
    assert code == 0
    sample = zero_one_stats(PredictionSample(preds, labels))
    expect = corollary_upper_bound(sample, 0.05, ConfidenceBudget(0.01))
    assert rep["bound"] == expect.bound


def test_certify_auc_separated_scores(tmp_path):
    f = tmp_path / "scores.csv"
    rows = [f"{1.0 + i * 0.01},1" for i in range(20)] + [f"{-1.0 - i * 0.01},-1" for i in range(20)]
    f.write_text("score,label\n" + "\n".join(rows) + "\n")
    code, rep = run_report(tmp_path, ["certify-auc", str(f), "--rho-conditional", "0"])
    assert code == 0
    assert rep["auc_point_estimate"] == 1.0
    # Lower certificate at rho 0: 1 minus only the delta/3 Hoeffding slack.
    m = 20
    slack = math.sqrt(math.log(3 / 0.01) / (2 * m))
    assert rep["bound"] == pytest.approx(1.0 - slack, abs=1e-12)
    assert rep["vacuous"] is False


def test_certify_auc_full_radius_vacuous(tmp_path):
    f = tmp_path / "scores.csv"
    rows = [f"{1.0 + i * 0.01},1" for i in range(10)] + [f"{-1.0 - i * 0.01},-1" for i in range(10)]
    f.write_text("score,label\n" + "\n".join(rows) + "\n")
    code, rep = run_report(tmp_path, ["certify-auc", str(f), "--rho-conditional", "1"])
    assert code == 0
    assert rep["radius"] == 1.0
    assert rep["bound"] == 0.0
    assert rep["vacuous"] is True


def test_certify_auc_missing_class(tmp_path):
    f = tmp_path / "scores.csv"
    f.write_text("score,label\n0.5,1\n0.6,1\n")
    assert main(["certify-auc", str(f), "--rho-conditional", "0.1"]) == 1


def test_oracle_command(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text('{"p": [1.0, 0.0], "losses": [0.0, 1.0], "M": 1.0, "rho": 0.3}')
    code, rep = run_report(tmp_path, ["oracle", str(inst)])
    assert code == 0
    assert rep["sup"]["value"] == pytest.approx(0.1719, abs=1e-9)
    assert rep["certificates"]["upper"] >= rep["sup"]["value"] - 1e-9
    assert rep["certificates"]["lower"] <= rep["inf"]["value"] + 1e-9


def test_oracle_zero_radius(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text('{"p": [0.25, 0.75], "losses": [0.1, 0.9], "M": 1.0, "rho": 0.0}')
    code, rep = run_report(tmp_path, ["oracle", str(inst)])
    assert code == 0
    expect = 0.25 * 0.1 + 0.75 * 0.9
    assert rep["sup"]["value"] == pytest.approx(expect, abs=1e-12)
    assert rep["inf"]["value"] == pytest.approx(expect, abs=1e-12)


def test_oracle_mean_rounded_to_ceiling_exits_0(tmp_path):
    # p @ losses rounds to M = 1 while the variance stays 2.5e-18 > 0.
    inst = tmp_path / "inst.json"
    inst.write_text('{"p": [0.99999999999999999, 1e-17], "losses": [1.0, 0.5], "M": 1, "rho": 0.1}')
    code, rep = run_report(tmp_path, ["oracle", str(inst)])
    assert code == 0
    certs = rep["certificates"]
    assert certs["mean"] == 1.0 and certs["variance"] > 0.0
    assert (certs["upper"], certs["upper_is_trivial"]) == (1.0, True)
    assert certs["upper"] >= rep["sup"]["value"]
    assert certs["lower"] <= rep["inf"]["value"]


def test_oracle_with_every_loss_at_the_ceiling_exits_0(tmp_path, capsys):
    # The masses' rounded sum puts p @ losses at 1.0000000000000002 > M.
    inst = tmp_path / "inst.json"
    inst.write_text('{"p": [0.8, 0.31, 0.46, 0.14], "losses": [1.0, 1.0, 1.0, 1.0], "M": 1.0, "rho": 0.3}')
    code, rep = run_report(tmp_path, ["oracle", str(inst)])
    assert code == 0 and capsys.readouterr().err == ""
    assert rep["certificates"]["mean"] == 1.0 and rep["certificates"]["variance"] == 0.0
    assert rep["sup"]["value"] == 1.0 == rep["inf"]["value"]


def test_oracle_bad_instance(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text('{"p": [1.0], "losses": [0.0, 1.0], "M": 1.0, "rho": 0.3}')
    assert main(["oracle", str(inst)]) == 1


def test_label_shift_command(tmp_path):
    gen = stream(17)
    labels = gen.integers(0, 5, size=400)
    preds = np.where(gen.random(400) < 0.1, (labels + 1) % 5, labels)
    data = tmp_path / "preds.csv"
    data.write_text(
        "pred,label\n" + "\n".join(f"{p},{l}" for p, l in zip(preds, labels)) + "\n"
    )
    scatter = tmp_path / "scatter.csv"
    curve = tmp_path / "curve.csv"
    code, rep = run_report(
        tmp_path,
        ["label-shift", "--dataset", str(data), "--trials", "30", "--seed", "4",
         "--scatter-csv", str(scatter), "--curve-csv", str(curve)],
    )
    assert code == 0
    lines = scatter.read_text().splitlines()
    assert lines[0] == "hellinger,loss,mechanism"
    assert len(lines) == 31
    assert curve.read_text().splitlines()[0] == "rho,lower,lower_is_trivial,upper,upper_is_trivial"
    assert rep["inputs"]["n_classes"] == 5


def test_mixture_command(tmp_path):
    csv = tmp_path / "mix.csv"
    code, rep = run_report(
        tmp_path,
        ["mixture", "--gamma-grid", "0.5,1.0", "--seed", "2", "--samples", "400",
         "--csv", str(csv)],
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("gamma,hellinger,composite_radius")
    assert rep["gamma_grid"] == [0.5, 1.0]


def test_gamma_grid_parser_colon_form(tmp_path):
    csv = tmp_path / "mix.csv"
    code, rep = run_report(
        tmp_path,
        ["mixture", "--gamma-grid", "0.2:0.6:0.2", "--samples", "50", "--csv", str(csv)],
    )
    assert code == 0
    assert rep["gamma_grid"] == pytest.approx([0.2, 0.4, 0.6])


@pytest.mark.parametrize("text, n", [("0.05:1.0:0.05", 20), ("0.1:0.9:0.2", 5), ("0.2:0.6:0.2", 3)])
def test_grid_keeps_a_stop_the_quotient_rounds_past(text, n):
    start, _, step = map(float, text.split(":"))
    assert cli.grid(text) == [start + i * step for i in range(n)]


def test_gamma_grid_stops_at_or_before_its_stop(tmp_path):
    # 1 / 0.06 is 16.7: the grid ends at 0.96, not at a gamma of 1.02 beyond [0, 1].
    csv = tmp_path / "mix.csv"
    code, rep = run_report(
        tmp_path,
        ["mixture", "--gamma-grid", "0:1:0.06", "--samples", "50", "--csv", str(csv)],
    )
    assert code == 0
    assert rep["gamma_grid"] == [i * 0.06 for i in range(17)]


def test_delta_grid_stops_at_or_before_its_stop(tmp_path):
    # 2 / 0.3 is 6.7: no shift beyond 2 is certified.
    csv_path = tmp_path / "sweep.csv"
    args = [
        "synthetic-compare", "--widths", "2", "--depths", "1",
        "--delta-grid", "0:2:0.3", "--seed", "3", "--n-train", "200",
        "--n-eval", "300", "--train-steps", "100", "--csv", str(csv_path),
    ]
    code, _ = run_report(tmp_path, args)
    assert code == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        deltas = [float(row["norm_delta"]) for row in csv.DictReader(fh)]
    assert deltas == [i * 0.3 for i in range(7)]


@pytest.mark.parametrize("command, flag", [
    (["mixture", "--samples", "50"], "--gamma-grid"),
    (["synthetic-compare", "--widths", "2", "--depths", "1"], "--delta-grid"),
])
@pytest.mark.parametrize("text", ["0:1:1e-300", "0:1000000:1", "0:1.7976931348623157e308:1"])
def test_grid_of_too_many_points_exits_1(tmp_path, capsys, command, flag, text):
    # Rejected before a point is built: 0:1:1e-300 asks for 1e300 of them.
    csv_path = tmp_path / "out.csv"
    assert main([*command, flag, text, "--csv", str(csv_path)]) == 1
    message = f"error: argument {flag}: {text!r} has more than {cli.GRID_POINTS_MAX} points\n"
    assert capsys.readouterr().err.endswith(message)
    assert not csv_path.exists()


def test_grid_takes_its_most_points():
    assert cli.grid(f"0:{cli.GRID_POINTS_MAX - 1}:1") == list(map(float, range(cli.GRID_POINTS_MAX)))


def test_synthetic_compare_command_small(tmp_path):
    csv = tmp_path / "sweep.csv"
    args = [
        "synthetic-compare", "--widths", "2", "--depths", "1",
        "--delta-grid", "0.01,0.5", "--seed", "3", "--n-train", "200",
        "--n-eval", "300", "--train-steps", "100", "--csv", str(csv),
    ]
    code, rep = run_report(tmp_path, args)
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == ("norm_delta,hellinger,wasserstein,empirical_loss_shifted,gramian_cert,"
                        "gramian_max_valid_radius,dual_cert,lipschitz_cert,width,depth,seed")
    assert len(lines) == 3


def test_synthetic_compare_radius_beyond_gramian_validity_exit_0(tmp_path):
    # With 50 evaluation points the Gramian certificate is valid up to a
    # Hellinger radius of about 0.59, below the 0.63 of delta = 2: that
    # cell is empty, and the other deltas and certificates are still written.
    sweep = tmp_path / "sweep.csv"
    args = ["synthetic-compare", "--n-eval", "50", "--n-train", "300", "--train-steps", "200",
            "--csv", str(sweep)]
    code, _ = run_report(tmp_path, args)
    assert code == 0
    with open(sweep, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["norm_delta"] for row in rows] == ["0.01", "0.5", "1", "1.5", "2"]
    for row in rows:
        valid = float(row["hellinger"]) <= float(row["gramian_max_valid_radius"])
        assert (row["gramian_cert"] != "") == valid
        assert float(row["dual_cert"]) > 0.0 and float(row["lipschitz_cert"]) > 0.0
    assert rows[-1]["gramian_cert"] == "" and rows[0]["gramian_cert"] != ""


def test_synthetic_compare_with_a_huge_shift_exits_0(tmp_path, capsys):
    # The squared budget overflows a float: the dual certificate is +inf, a
    # true but vacuous bound, and the other cells stay finite.
    sweep = tmp_path / "sweep.csv"
    args = ["synthetic-compare", "--n-train", "50", "--n-eval", "20", "--train-steps", "5",
            "--delta-grid", "1e160", "--csv", str(sweep)]
    code, _ = run_report(tmp_path, args)
    assert code == 0 and capsys.readouterr().err == ""
    with open(sweep, newline="", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert row["dual_cert"] == "inf" and row["hellinger"] == "1"
    assert math.isfinite(float(row["empirical_loss_shifted"]))
    assert math.isfinite(float(row["lipschitz_cert"]))


def _bad_value(argv, message):
    # The id joins the flag, its value and the message.
    return pytest.param(argv, message, id="-".join([*argv[1:3], message]))


# Required input and output arguments per subcommand, relative to the test directory.
_OUTPUTS = {
    "certify": ["losses.csv"],
    "certify-accuracy": ["preds.csv"],
    "certify-auc": ["scores.csv"],
    "synthetic-compare": ["--csv", "out.csv"],
    "mixture": ["--csv", "out.csv"],
    "label-shift": ["--dataset", "preds.csv", "--scatter-csv", "scatter.csv", "--curve-csv", "curve.csv"],
}


@pytest.mark.parametrize(
    "argv, message",
    [
        _bad_value(["synthetic-compare", "--n-train", "0"], "--n-train must be at least 1, got 0"),
        _bad_value(["synthetic-compare", "--n-eval", "0"], "--n-eval must be at least 2, got 0"),
        _bad_value(["synthetic-compare", "--n-eval", "1"], "--n-eval must be at least 2, got 1"),
        _bad_value(["synthetic-compare", "--train-steps", "-5"], "--train-steps must be at least 0, got -5"),
        _bad_value(["synthetic-compare", "--widths", "4,0"], "--widths must be at least 1, got 0"),
        _bad_value(["synthetic-compare", "--depths", "-1"], "--depths must be at least 0, got -1"),
        _bad_value(["synthetic-compare", "--widths", "a"], "argument --widths: invalid integer_list value: 'a'"),
        _bad_value(["synthetic-compare", "--delta-grid", "0.5,x"],
                   "argument --delta-grid: invalid grid value: '0.5,x'"),
        _bad_value(["synthetic-compare", "--delta-grid", "nan"],
                   "--delta-grid must be finite and non-negative, got nan"),
        _bad_value(["synthetic-compare", "--delta-grid", "0.5,inf"],
                   "--delta-grid must be finite and non-negative, got inf"),
        _bad_value(["synthetic-compare", "--delta-grid", "0.5,-1"],
                   "--delta-grid must be finite and non-negative, got -1.0"),
        _bad_value(["label-shift", "--trials", "-1"], "--trials must be at least 1, got -1"),
        _bad_value(["label-shift", "--unseen-classes", "-1"], "--unseen-classes must be at least 0, got -1"),
        _bad_value(["label-shift", "--dirichlet-concentration", "0"],
                   "--dirichlet-concentration must be positive and finite, got 0.0"),
        _bad_value(["label-shift", "--dirichlet-concentration", "inf"],
                   "--dirichlet-concentration must be positive and finite, got inf"),
        _bad_value(["mixture", "--samples", "0"], "--samples must be at least 1, got 0"),
        _bad_value(["mixture", "--seed", "-1"], "--seed must lie in [0, 2**64), got -1"),
        _bad_value(["mixture", "--gamma-grid", "0:1"], "argument --gamma-grid: invalid grid value: '0:1'"),
        _bad_value(["mixture", "--gamma-grid", "0.5,1.5"], "--gamma-grid must lie in [0, 1], got 1.5"),
        _bad_value(["mixture", "--gamma-grid", "0:inf:0.1"],
                   "argument --gamma-grid: '0:inf:0.1': step must be positive and the range finite"),
        _bad_value(["certify", "--max-loss", "0", "--rho", "0.1"], "--max-loss must be positive and finite, got 0.0"),
        _bad_value(["certify", "--max-loss", "-1", "--rho", "0.1"], "--max-loss must be positive and finite, got -1.0"),
        _bad_value(["certify", "--max-loss", "nan", "--rho", "0.1"], "--max-loss must be positive and finite, got nan"),
        _bad_value(["certify", "--max-loss", "inf", "--rho", "0.1"], "--max-loss must be positive and finite, got inf"),
        _bad_value(["certify", "--rho", "2"], "--rho must lie in [0, 1], got 2.0"),
        _bad_value(["certify", "--rho", "nan"], "--rho must lie in [0, 1], got nan"),
        _bad_value(["certify-accuracy", "--rho", "-0.1"], "--rho must lie in [0, 1], got -0.1"),
        _bad_value(["certify", "--delta", "0", "--rho", "0.1"], "--delta must lie in (0, 1), got 0.0"),
        _bad_value(["certify-accuracy", "--delta", "1", "--rho", "0.1"], "--delta must lie in (0, 1), got 1.0"),
        _bad_value(["certify", "--delta", "nan", "--rho", "0.1"], "--delta must lie in (0, 1), got nan"),
        _bad_value(["synthetic-compare", "--delta", "1.5"], "--delta must lie in (0, 1), got 1.5"),
        _bad_value(["certify-auc", "--rho-conditional", "1.5"], "--rho-conditional must lie in [0, 1], got 1.5"),
        _bad_value(["certify-auc", "--rho-conditional", "nan"], "--rho-conditional must lie in [0, 1], got nan"),
    ],
)
def test_synthetic_compare_bad_size_exit_1(tmp_path, capsys, monkeypatch, argv, message):
    """Every size, count, grid and real-valued flag is checked before any file is read, naming the flag."""
    inputs = _no_file_read(tmp_path, monkeypatch)
    assert main(argv + _OUTPUTS[argv[0]]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


def _no_file_read(tmp_path, monkeypatch):
    """The inputs of every subcommand in ``tmp_path``, with each reader failing the test if called."""
    monkeypatch.chdir(tmp_path)
    inputs = {"losses.csv": "loss\n0.5\n0.25\n", "preds.csv": "pred,label\n1,1\n0,1\n",
              "scores.csv": "score,label\n0.9,1\n0.1,-1\n"}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    for reader in ("read_losses", "read_predictions", "read_scores"):
        monkeypatch.setattr(cli, reader, unittest.mock.Mock(side_effect=AssertionError("file read")))
    return inputs


_SEEDED = {
    "mixture": ["mixture", "--samples", "50", "--gamma-grid", "0.5"],
    "label-shift": ["label-shift", "--trials", "3"],
    "certify-auc": ["certify-auc", "--rho-conditional", "0.1"],
    "synthetic-compare": ["synthetic-compare", "--widths", "2", "--depths", "0", "--delta-grid", "0.5",
                          "--n-train", "20", "--n-eval", "20", "--train-steps", "2"],
}


@pytest.mark.parametrize("command, seed", [("mixture", 2**64), ("label-shift", 2**64), ("certify-auc", 2**64),
                                           ("synthetic-compare", 99999999999999999999999)])
def test_a_seed_beyond_64_bits_exits_1_on_one_line(tmp_path, capsys, monkeypatch, command, seed):
    """A Philox key word holds 64 bits; a larger seed is refused before any file is read."""
    inputs = _no_file_read(tmp_path, monkeypatch)
    assert main([*_SEEDED[command], "--seed", str(seed), *_OUTPUTS[command]]) == 1
    assert capsys.readouterr().err == f"error: --seed must lie in [0, 2**64), got {seed}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


@pytest.mark.parametrize("command", sorted(_SEEDED))
def test_the_largest_64_bit_seed_is_accepted(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "preds.csv").write_text("pred,label\n1,1\n0,1\n0,0\n")
    (tmp_path / "scores.csv").write_text("score,label\n0.9,1\n0.1,-1\n0.8,1\n0.2,-1\n")
    argv = [*_SEEDED[command], "--seed", str(2**64 - 1), *_OUTPUTS[command], "--output", "report.json"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "report.json").read_text())["seed"] == 2**64 - 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["certify", "f.csv", "--rho", "abc"], "--rho"),
        (["certify", "f.csv"], "--rho"),
        (["bogus"], "bogus"),
    ],
)
def test_usage_error_exit_1_without_report(tmp_path, capsys, argv, named):
    # Exit 2 would claim a radius beyond validity with a report to read.
    out = tmp_path / "report.json"
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: hellcert")
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["certify", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_traced_cli_names_are_looked_up_at_call_time(tmp_path, monkeypatch):
    """Every ``hellcert.cli`` name the benchmark's traced run wraps sees the CLI's calls.

    ``perfbench/tracing.py`` times the CLI's layers by replacing these
    module globals, so a handler or table that bound one at import time
    would silently zero its span.  The two default-size sweeps are left out:
    the small sweep already calls everything they call.
    """
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "CLI_SPANS")
    # main is the entry point, which the tracer calls itself.
    names = sorted({name for module, name, _ in spans if module == "hellcert.cli"} - {"main"})
    calls = collections.defaultdict(list)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name].append(len(args))
            return fn(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    for case, args in CASES.items():
        if not case.startswith("synthetic-compare-"):
            run_case(args, tmp_path / case)
    assert [name for name in names if not calls[name]] == []
    # The tracer counts written rows only when the rows are the third positional argument.
    assert set(calls["write_csv"]) == {3}


@pytest.mark.parametrize("values, args, message", [
    # sigma_bar is about 1e159, so sigma_bar^2 overflows in the bound.
    (list(stream(9).random(1000)), ["--rho", "0.01", "--max-loss", "1e160"],
     "upper certificate at radius 0.01 is nan: its terms overflow the float range"),
    ([0, 1e200, 5e199], ["--direction", "lower", "--rho", "0", "--max-loss", "1e200"],
     "the variance of the losses overflows the float range (ceiling 1e+200)"),
    ([0, 1e200, 5e199], ["--direction", "upper", "--rho", "0", "--max-loss", "1e200"],
     "the variance of the losses overflows the float range (ceiling 1e+200)"),
    # Their sum overflows too, in the mean.
    ([1e308, 1.5e308], ["--rho", "0", "--max-loss", "1.7e308"],
     "the variance of the losses overflows the float range (ceiling 1.7e+308)"),
])
def test_certify_whose_numbers_overflow_exits_1(tmp_path, capsys, values, args, message):
    path = losses_file(tmp_path, values)
    assert main(["certify", path, *args]) == 1
    assert capsys.readouterr().err == f"error: {path}:0: {message}\n"


def test_cli_determinism_certify(tmp_path):
    path = losses_file(tmp_path, list(stream(3).random(50)))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["certify", path, "--rho", "0.02", "--output", str(a)])
    main(["certify", path, "--rho", "0.02", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- input faults


@pytest.mark.parametrize(
    "name, text, line",
    [
        ("null.jsonl", '{"loss": 0.5}\n{"loss": null}\n', 2),
        ("bool.jsonl", '{"loss": 0.5}\n{"loss": true}\n', 2),
        ("list.jsonl", '{"loss": 0.5}\n{"loss": [0.3]}\n', 2),
        ("string.jsonl", '{"loss": 0.5}\n{"loss": "abc"}\n', 2),
        ("nan.jsonl", '{"loss": 0.5}\n{"loss": 0.25}\n{"loss": NaN}\n', 3),
        ("nan.csv", "loss\n0.5\nnan\n0.25\n", 3),
        ("range.csv", "loss\n0.5\n\n0.25\n1.5\n", 5),
        ("negative.jsonl", '{"loss": 0.5}\n\n{"loss": -0.1}\n', 3),
    ],
)
def test_certify_bad_loss_reports_file_and_line(tmp_path, capsys, name, text, line):
    f = tmp_path / name
    f.write_text(text)
    assert main(["certify", str(f), "--rho", "0.1"]) == 1
    assert f"{f}:{line}:" in capsys.readouterr().err


def test_read_predictions_rejects_boolean_and_fractional_jsonl(tmp_path):
    f = tmp_path / "p.jsonl"
    f.write_text('{"pred": 1, "label": 1}\n{"pred": 1, "label": true}\n')
    with pytest.raises(InputFormatError, match=r":2: label must be a number"):
        read_predictions(f)
    f.write_text('{"pred": 1.5, "label": 1}\n')
    with pytest.raises(InputFormatError, match=r":1: bad pred"):
        read_predictions(f)
    # One rule per value, in key order: the first key's bad number is named before the second key's non-number.
    f.write_text('{"pred": 1.5, "label": true}\n')
    with pytest.raises(InputFormatError, match=r":1: bad pred: 1.5$"):
        read_predictions(f)


_KEYS = "object must carry keys ('p', 'losses', 'M', 'rho')"


@pytest.mark.parametrize("text, line, message", [
    ("[1, 2]", 0, _KEYS),
    ('{"p": [0.5, 0.5], "losses": [0.1, 0.9], "M": 1}', 0, _KEYS),
    ('{\n  "p": [0.5, 0.5],\n  "losses": [0.1, 0.9],\n  "M": 1, \'rho\': 0.1\n}\n', 4,
     "bad JSON: Expecting property name enclosed in double quotes"),
    ('{"p": [0.5, 0.5], "losses": [0.1, 0.9], "M": 1' + "0" * 5000 + ', "rho": 0.1}', 0,
     f"bad JSON: integer of more than {sys.get_int_max_str_digits()} digits"),
    ('{"p": [0.5, 0.5], "losses": [0.1, 0.9], "M": 1' + "0" * 400 + ', "rho": 0.1}', 0,
     "bad M: 1" + "0" * 19 + "... (401 digits)"),
    ('{"p": [0.5, 0.5], "losses": [0.1, 0.9], "M": [1], "rho": 0.1}', 0, "M must be a number, got [1]"),
    ('{"p": [0.5, 0.5], "losses": [0.1, -1' + "0" * 400 + '], "M": 1, "rho": 0.1}', 0,
     "bad losses: -1" + "0" * 18 + "... (401 digits)"),
    ('{"p": 0.5, "losses": [0.1], "M": 1, "rho": 0.1}', 0, "p must be a non-empty 1-d vector"),
    ('{"p": [], "losses": [], "M": 1, "rho": 0.1}', 0, "p must be a non-empty 1-d vector"),
    ('{"p": [0, 0.0], "losses": [0.1, 0.9], "M": 1, "rho": 0.1}', 0, "p must have positive total mass"),
    ('{"p": [0.5, -0.25], "losses": [0.1, 0.9], "M": 1, "rho": 0.1}', 0, "p must be non-negative"),
], ids=["list", "no-rho", "syntax-line-4", "digit-limit", "beyond-float-range", "listed-M", "loss-beyond-float-range",
        "scalar-p", "empty-p", "massless-p", "negative-p"])
def test_oracle_instance_fault_is_one_error_line_in_the_jsonl_wording(tmp_path, capsys, text, line, message):
    inst = tmp_path / "inst.json"
    inst.write_text(text)
    assert main(["oracle", str(inst)]) == 1
    assert capsys.readouterr().err == f"error: {inst}:{line}: {message}\n"


@pytest.mark.parametrize("command, name", [
    (["mixture", "--samples", "1000000000000", "--csv", "{dir}/m.csv"], "mixture_experiment"),
    (["synthetic-compare", "--n-train", "1000000000000", "--csv", "{dir}/s.csv"], "compare_certificates"),
])
def test_allocation_failure_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch, command, name):
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"

    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, name, allocate)
    assert main([arg.format(dir=tmp_path) for arg in command]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oracle_directory_exit_1(tmp_path, capsys):
    assert main(["oracle", str(tmp_path)]) == 1
    assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0:1:0", "0:1:-0.1", "1:0:0.1"])
def test_mixture_bad_gamma_range_exit_1(tmp_path, grid):
    csv = tmp_path / "mix.csv"
    assert main(["mixture", "--gamma-grid", grid, "--samples", "50", "--csv", str(csv)]) == 1
    assert not csv.exists()


@pytest.mark.parametrize(
    "name, text, line, message",
    [
        ("nan.csv", "score,label\n0.5,1\nnan,-1\n0.2,-1\n", 3, "score nan is not finite"),
        ("label.csv", "score,label\n0.5,1\n\n0.3,0\n", 4, "label 0 is not -1 or +1"),
        ("inf.jsonl", '{"score": 0.5, "label": 1}\n{"score": Infinity, "label": -1}\n', 2,
         "score inf is not finite"),
        ("label.jsonl", '{"score": 0.5, "label": 1}\n{"score": 0.3, "label": 2}\n', 2,
         "label 2 is not -1 or +1"),
    ],
)
def test_certify_auc_bad_score_reports_file_and_line(tmp_path, capsys, name, text, line, message):
    f = tmp_path / name
    f.write_text(text)
    assert main(["certify-auc", str(f), "--rho-conditional", "0.1"]) == 1
    assert f"{f}:{line}: {message}" in capsys.readouterr().err


def test_oracle_at_the_feasibility_edge_exits_0(tmp_path, capsys):
    # The saturation test misses this radius by one ulp, so the root search
    # runs towards nu = max loss until r = k / t overflows.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "p": [0.00850946776299552, 0.13909951260364103, 0.6568206603093363, 0.05527325939838807,
              0.14029709992563907],
        "losses": [0.576585768155148, 0.11045896545572909, 0.16571763073587698, 0.576585768155148,
                   0.11658367364270239],
        "M": 1.0, "rho": 0.8645505048403528}))
    code, rep = run_report(tmp_path, ["oracle", str(inst)])
    assert code == 0 and capsys.readouterr().err == ""
    assert rep["sup"]["certified_gap"] <= GAP_TOL
    assert rep["sup"]["value"] == pytest.approx(0.576585768155148, abs=1e-12)


def test_oracle_gap_above_tolerance_exits_3(tmp_path, capsys, monkeypatch):
    from hellcert import oracle

    inst = tmp_path / "inst.json"
    inst.write_text('{"p": [0.6, 0.4], "losses": [0.1, 0.8], "M": 1.0, "rho": 0.2}')
    monkeypatch.setattr(oracle, "_solve_max",
                        lambda p, losses, rho, lmax, lmin, on_support: (p.copy(), 2 * oracle.GAP_TOL, 0))
    assert main(["oracle", str(inst)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver diagnostic: oracle duality gap")
    assert '"rho": 0.2' in err
    with pytest.raises(oracle.OracleGapError):
        oracle.worst_case_sup(oracle.DiscreteInstance(*read_instance(inst)))


def test_oracle_gap_tolerance_is_relative_to_the_ceiling(tmp_path, capsys):
    # The inf's proven gap is about 2.7e-6, above GAP_TOL but 2.7e-15 of M.
    inst = tmp_path / "inst.json"
    inst.write_text('{"p": [0.3, 0.7], "losses": [0, 1e9], "M": 1e9, "rho": 0.5}')
    code, rep = run_report(tmp_path, ["oracle", str(inst)])
    assert code == 0 and capsys.readouterr().err == ""
    assert GAP_TOL < rep["inf"]["certified_gap"] <= GAP_TOL * 1e9
    # The reported tolerance is in loss units, as the gap is.
    assert rep["decisions"]["duality_gap_tol"] == 1000.0 >= rep["inf"]["certified_gap"]


def test_oracle_with_a_huge_ceiling_exits_0(tmp_path, capsys):
    # The ceiling's square overflows a float; the Bhatia-Davis check must not raise.
    inst = tmp_path / "inst.json"
    inst.write_text('{"p": [0.5, 0.5], "losses": [0, 1], "M": 1e300, "rho": 0.5}')
    assert main(["oracle", str(inst)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.cpu_bits
def test_oracle_with_masses_whose_sum_overflows_exits_0(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"p": [1e308, 1e308], "losses": [0.2, 0.5], "M": 1, "rho": 0.1}')
    code, rep = run_report(tmp_path, ["oracle", str(inst)])
    assert code == 0 and capsys.readouterr().err == ""
    assert rep["instance"]["p"] == [0.5, 0.5]
    assert rep["certificates"]["mean"] == pytest.approx(0.35, abs=1e-15)
    assert 0.35 < rep["sup"]["value"] < 0.5


def _nested(depth):
    return "[" * depth + "]" * depth


def test_deeply_nested_jsonl_is_a_bad_line(tmp_path, capsys):
    f = tmp_path / "deep.jsonl"
    f.write_text('{"loss": 0.5}\n{"loss": ' + _nested(100_000) + "}\n")
    assert main(["certify", str(f), "--rho", "0.1"]) == 1
    assert f"error: {f}:2: bad JSON: nested too deeply\n" == capsys.readouterr().err


def test_jsonl_integer_beyond_the_float_range_is_echoed_by_its_head_and_length(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.jsonl").write_text('{"loss": 0.5}\n{"loss": 1' + "0" * 3999 + "}\n")
    assert main(["certify", "big.jsonl", "--rho", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: big.jsonl:2: bad loss: 1" + "0" * 19 + "... (4000 digits)\n" and len(err) < 200


def test_deeply_nested_oracle_instance_exit_1(tmp_path, capsys):
    inst = tmp_path / "deep.json"
    inst.write_text('{"p": ' + _nested(100_000) + ', "losses": [0.5], "M": 1, "rho": 0.1}')
    assert main(["oracle", str(inst)]) == 1
    assert f"error: {inst}:0: bad JSON: nested too deeply\n" == capsys.readouterr().err


def test_value_nested_nearly_as_deep_as_json_reads_is_a_bad_line(tmp_path, capsys):
    # json.dumps, which names the value in the message, can run deeper in the stack than the json.loads that read it.
    messages = set()
    for depth in range(sys.getrecursionlimit() - 300, sys.getrecursionlimit()):
        for command, name, text, line in [
                ("certify", "deep.jsonl", '{"loss": 0.5}\n{"loss": %s}\n', 2),
                ("oracle", "deep.json", '{"p": [%s], "losses": [0.5], "M": 1, "rho": 0.1}', 0)]:
            f = tmp_path / name
            f.write_text(text % _nested(depth))
            assert main([arg.format(path=f, dir=tmp_path) for arg in _FILE_COMMANDS[command]]) == 1
            err = capsys.readouterr().err
            assert re.fullmatch(rf"error: {re.escape(str(f))}:{line}: (?:(?:loss|p) must be a number, got (?:\[+\]+|a "
                                rf"value nested too deeply)|bad JSON: nested too deeply)\n", err), err[:200]
            messages.add(err.split(": ", 2)[2].split(", got [")[0])
    if sys.version_info < (3, 12):  # the C code's recursion is counted with the interpreter's frames
        assert "loss must be a number, got a value nested too deeply\n" in messages


def test_number_too_deep_to_name_is_still_named_as_no_number():
    value = []
    for _ in range(100_000):  # beyond every interpreter's recursion limit, for Python and C code alike
        value = [value]
    with pytest.raises(InputFormatError) as raised:
        hio._number("deep.jsonl", 7, "loss", value)
    assert str(raised.value) == "deep.jsonl:7: loss must be a number, got a value nested too deeply"


def test_non_utf8_byte_is_reported_at_its_line(tmp_path, capsys):
    f = tmp_path / "losses.csv"
    f.write_bytes(b"loss\n0.5\n0.25\xff\n0.75\n")
    assert detect_format(f) == "csv_losses"  # the whole file is read, the header line alone decoded
    assert main(["certify", str(f), "--rho", "0.1"]) == 1
    assert f"error: {f}:3: not UTF-8 (invalid start byte, byte 0xff)\n" == capsys.readouterr().err
    inst = tmp_path / "inst.json"
    inst.write_bytes(b'{"p": [0.5, 0.5],\n "losses": [0.1, 0.9], "M": 1, "rho": 0.1\xe9}')
    assert main(["oracle", str(inst)]) == 1
    assert f"error: {inst}:2: not UTF-8 (invalid continuation byte, byte 0xe9)\n" == capsys.readouterr().err


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        ("certify", "losses.csv", "loss\n", "need at least 2 losses for an unbiased variance, got 0"),
        ("certify-accuracy", "preds.csv", "pred,label\n\n", "prediction sample must be non-empty"),
        ("label-shift", "preds.csv", "pred,label\n", "prediction sample must be non-empty"),
        ("certify-auc", "scores.csv", "score,label\n0.5,1\n0.6,1\n", "degenerate sample: both classes must be present"),
        ("oracle", "inst.json", '{"p": [0.5, 0.5], "losses": [0.1, 0.9], "M": 1, "rho": Infinity}',
         "rho must lie in [0, 1], got inf"),
        ("oracle", "inst.json", '{"p": [0.5, 0.5], "losses": [NaN, 0.5], "M": 1, "rho": 0.1}',
         "losses must lie in [0, 1.0]"),
        ("oracle", "inst.json", '{"p": [0.5, 0.5], "losses": [0.1, 0.9], "M": 1, "rho": true}',
         "rho must be a number, got true"),
        ("oracle", "inst.json", '{"p": [0.5, 0.5], "losses": [0.1, 0.9], "M": true, "rho": 0.1}',
         "M must be a number, got true"),
        ("oracle", "inst.json", '{"p": [true, false], "losses": [0.1, 0.9], "M": 1, "rho": 0.1}',
         "p must be a number, got true"),
        ("oracle", "inst.json", '{"p": [0.5, 0.5], "losses": [0.1, false], "M": 1, "rho": 0.1}',
         "losses must be a number, got false"),
    ],
)
@pytest.mark.cpu_bits
def test_whole_sample_fault_names_its_file(tmp_path, capsys, command, name, text, message):
    """A fault of no one line is reported at line 0 of its file, as a reader reports an unreadable file."""
    f = tmp_path / name
    f.write_text(text)
    assert main([arg.format(path=f, dir=tmp_path) for arg in _FILE_COMMANDS[command]]) == 1
    assert f"error: {f}:0: {message}\n" == capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, line, message",
    [
        ("big.csv", "pred,label\n1,1\n99999999999999999999,1\n0,1\n", 3, "bad pred: '99999999999999999999'"),
        ("big.csv", "pred,label\n1,-9223372036854775809\n", 2, "bad label: '-9223372036854775809'"),
        ("big.jsonl", '{"pred": 1, "label": 1}\n{"pred": 9223372036854775808, "label": 1}\n', 2,
         "bad pred: 9223372036854775808"),
        ("big.jsonl", '{"pred": 1, "label": 99999999999999999999}\n', 1, "bad label: 99999999999999999999"),
    ],
)
def test_prediction_beyond_int64_is_a_bad_line(tmp_path, capsys, name, text, line, message):
    f = tmp_path / name
    f.write_text(text)
    assert main(["certify-accuracy", str(f), "--rho", "0.1"]) == 1
    assert f"error: {f}:{line}: {message}\n" == capsys.readouterr().err


def test_int64_extremes_are_read_on_both_paths(tmp_path, monkeypatch):
    f = tmp_path / "p.csv"
    f.write_text("pred,label\n9223372036854775807,-9223372036854775808\n")
    columns = hio._loadtxt(f, f.read_bytes(), hio.FORMATS["csv_predictions"])
    assert [c.tolist() for c in columns] == [[2**63 - 1], [-2**63]]
    monkeypatch.setattr(hio, "_loadtxt", lambda *args: None)
    preds, labels = read_predictions(f)
    assert [preds.tolist(), labels.tolist()] == [[2**63 - 1], [-2**63]]
    assert preds.dtype == labels.dtype == np.int64


# ---------------------------------------------------------------- fast path against the per-line parser


def _jsonl_reference(path, data, fields):
    """The JSONL reference for the line parser: ``json.loads`` of each line, decoded on its own, and the
    checks of each record's numbers, in file order; one array per field and index -> line number."""
    columns, line_nos = [[] for _ in fields], []
    for i, line in hio._lines(path, data):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputFormatError(path, i, f"bad JSON: {exc.msg}") from exc
        except RecursionError:
            raise InputFormatError(path, i, "bad JSON: nested too deeply") from None
        except ValueError:  # an integer literal of more digits than int() converts
            limit = sys.get_int_max_str_digits()
            raise InputFormatError(path, i, f"bad JSON: integer of more than {limit} digits") from None
        if not isinstance(obj, dict) or any(key not in obj for key in fields):
            raise InputFormatError(path, i, f"object must carry keys {tuple(fields)}")
        for column, (key, dtype) in zip(columns, fields.items()):  # each value in key order, checked, then read
            if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
                raise InputFormatError(path, i, f"{key} must be a number, got {json.dumps(obj[key])}")
            column.append(hio._value(path, i, obj[key], key, dtype))
        line_nos.append(i)
    return [np.array(column, dtype=dtype) for column, dtype in zip(columns, fields.values())], line_nos.__getitem__


# The per-line parsers each reader's outcome is held to: CSV's, and json.loads of each JSONL line.
_PER_LINE = {"_loadtxt": lambda path, data, fields: None, "_decode_jsonl": _jsonl_reference}
# The JSONL line parser over the whole file: a canonical regex that matches no line.
_LINE_PARSER_ONLY = {"_canonical": lambda columns: re.compile(b"(?!)")}

# reader -> (function, its CSV format, {field: kind of value})
_READERS = {
    "losses": (read_losses, "csv_losses", {"loss": "unit"}),
    "predictions": (read_predictions, "csv_predictions", {"pred": "class", "label": "class"}),
    "scores": (read_scores, "csv_scores", {"score": "real", "label": "sign"}),
}
_VALUES = {
    "unit": st.floats(0.0, 1.0) | st.sampled_from([0, 1]),
    "real": st.floats(-1e6, 1e6) | st.integers(-5, 5),
    "class": st.integers(0, 9),
    "sign": st.sampled_from([-1, 1]),
}
# Lines that are some reader's fault, or an unusual spelling both parsers must read alike.
_ADVERSARIAL = [
    " ", "\t ", "\x0b", "5 6,7 8", "1_0", "1_0,1", "nan", "nan,1", "inf", "-inf,-1", "1e400", "1e400,1",
    '"0.5"', "0.5,", "0.5,1,", ",", "99999999999999999999", "99999999999999999999,1", "1,-99999999999999999999",
    "3.0", "3.0,1", "1,3.0", "true", "0.5\r0.6", "0.5\r0.6,1", "-0.1", "1.5", "0.5,2", "0x10",
    "\xa00.5", "\xa00.5,\xa01", "5\u01fe", "5\u01fe,1", "1,5\u01fe", "\u0663", "\u0663,\u0661",
    '{"loss": true}', '{"loss": [[0.5]]}', '{"loss": "0.5"}', '{"loss": null}', '{"loss": 0.5}{"loss": 0.5}',
    '{"loss": 1e400}', '{"loss": NaN}', '{"loss": 10000000000000000000000000000000}',
    '{"pred": 3.0, "label": 1}', '{"pred": 1, "label": [1]}', '{"pred": 99999999999999999999, "label": 1}',
    '{"score": 0.5, "label": false}', '{"score": 0.5, "label": 1.0}', '{"score": Infinity, "label": 1}',
    '{"score": 0.5, "label": 1}{"score": 0.5, "label": 1}', "[0.5]", "null", "{}", "{",
    # Padded with whitespace that str.strip removes and JSON does not.
    '\x1c{"loss": 0.5}\x85', '\u2028{"loss": 0.5}\u3000', '\x85{"score": 0.5, "label": 1}\x1c',
    '\u3000{"pred": 1, "label": 2}\u2028', "\x1c0.5\x85", "\u20280.5,1\u3000",
    # Not one object, non-finite constants, duplicate keys (the last one wins).
    '{"loss": 0.5} {"loss": 0.5}', '{"pred": 1, "label": 1} {"pred": 1, "label": 1}',
    '{"loss": 0.5,}', '{"loss": 0.5},', '{"score": 0.5, "label": 1,}', '[{"loss": 0.5}]', "-1", '"x"',
    '{"loss": Infinity}', '{"loss": -Infinity}', '{"score": NaN, "label": 1}', '{"pred": NaN, "label": 1}',
    '{"loss": 2, "loss": 0.5}', '{"loss": 0.5, "loss": 2}', '{"score": 0.5, "label": 1, "label": 3}',
    '{"pred": 1, "label": 1, "pred": true}',
    # Canonical layout at the edges of the JSON grammar: -0 is the integer 0, an integer beyond
    # the float range or int64 is a bad value, and a number JSON does not spell is bad JSON.
    '{"loss": -0}', '{"loss": 1' + "0" * 400 + "}", '{"loss": 01}', '{"loss": 1.}', '{"loss": .5}',
    '{"loss": 1e}', '{ "loss" : 0.5 }', '{"pred": -0, "label": 1}', '{"pred": 9223372036854775808, "label": 1}',
    # Integer literals longer than int() converts (4,300 digits by default).
    "1" + "0" * 5000, "1,1" + "0" * 5000, '{"loss": 1' + "0" * 5000 + "}",
    '{"score": 0.5, "label": 1' + "0" * 5000 + "}", '{"pred": 1, "label": 1' + "0" * 5000 + "}",
]


def _csv_text(value):
    if isinstance(value, float):
        return st.sampled_from([repr(value), f"{value:.3e}", "+" + repr(abs(value)), f"  {value!r} "])
    return st.sampled_from([str(value), f" {value} ", "+" + str(abs(value))])


@st.composite
def _valid_line(draw, fields, jsonl):
    values = [draw(_VALUES[kind]) for kind in fields.values()]
    if jsonl:
        separators = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
        return draw(st.sampled_from(["", " "])) + json.dumps(dict(zip(fields, values)), separators=separators)
    return ",".join(draw(_csv_text(v)) for v in values)


@st.composite
def _input_text(draw, fields, jsonl):
    """A file of valid records in varied spellings and blank lines, with up to two adversarial lines."""
    lines = draw(st.lists(_valid_line(fields, jsonl) | st.just(""), max_size=8))
    for line in draw(st.lists(st.sampled_from(_ADVERSARIAL), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    if not jsonl:
        lines.insert(0, draw(st.sampled_from([",".join(fields), " " + ",".join(fields).upper()])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def _outcome(read, path, fmt, csv_format):
    """The reader's arrays as bytes, each checked to have its format table dtype, or its error message."""
    try:
        result = read(path, fmt)
    except InputFormatError as exc:
        return str(exc)
    arrays = result if isinstance(result, tuple) else (result,)
    assert [a.dtype for a in arrays] == list(hio.FORMATS[csv_format].values())
    return [a.tobytes() for a in arrays]


def _as_per_line_parser_reads_it(read, path, fmt, csv_format):
    """The reader's outcome, which must equal the per-line reference's and, for JSONL, the line parser's
    over the whole file."""
    outcome = _outcome(read, path, fmt, csv_format)
    with unittest.mock.patch.multiple(hio, **_PER_LINE):
        assert outcome == _outcome(read, path, fmt, csv_format)
    if fmt == "jsonl":
        with unittest.mock.patch.multiple(hio, **_LINE_PARSER_ONLY):
            assert outcome == _outcome(read, path, fmt, csv_format)
    return outcome


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), reader=st.sampled_from(sorted(_READERS)), jsonl=st.booleans(),
       chunk=st.sampled_from([hio._CANONICAL_CHUNK, 1, 24]))
def test_fast_path_matches_per_line_parser(tmp_path, data, reader, jsonl, chunk):
    """The vectorized pass returns exactly what the per-line parser returns, or leaves the file to it;
    for JSONL, the canonical chunks and the line parser after them return what ``json.loads`` of each
    line and the line parser over the whole file return.

    Small canonical chunks put a chunk edge after every line or every few.
    """
    read, csv_format, fields = _READERS[reader]
    path = tmp_path / "input"
    path.write_bytes(data.draw(_input_text(fields, jsonl)).encode("utf-8"))
    with unittest.mock.patch.object(hio, "_CANONICAL_CHUNK", chunk):
        _as_per_line_parser_reads_it(read, path, "jsonl" if jsonl else csv_format, csv_format)


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("jsonl, chunk", [(False, None), (True, 1 << 16), (True, 1), (True, 24)])
def test_fast_path_matches_per_line_parser_on_each_adversarial_line(tmp_path, monkeypatch, reader, jsonl, chunk):
    read, csv_format, fields = _READERS[reader]
    fmt = "jsonl" if jsonl else csv_format
    valid = json.dumps(dict.fromkeys(fields, 1)) if jsonl else ",".join("1" * len(fields))
    path = tmp_path / "input"
    if chunk is not None:
        monkeypatch.setattr(hio, "_CANONICAL_CHUNK", chunk)
    for line in _ADVERSARIAL:
        header = [] if jsonl else [",".join(fields)]
        path.write_text("\n".join([*header, valid, line, valid]) + "\n", encoding="utf-8")
        _as_per_line_parser_reads_it(read, path, fmt, csv_format)


@pytest.mark.parametrize(
    "fmt, fields, text, expected",
    [
        ("csv_losses", {"loss": np.float64}, "loss\r\n1e-3\r\n+0.5\r\n\r\n  0.25 \r\n1", [[1e-3, 0.5, 0.25, 1.0]]),
        ("jsonl", {"loss": np.float64}, '{"loss": 1e-3}\n\n {"loss":1} \r\n{"loss": 0.5}', [[1e-3, 1.0, 0.5]]),
        ("csv_predictions", {"pred": np.int64, "label": np.int64}, "pred,label\n+1, 2\n\n3 ,4", [[1, 3], [2, 4]]),
        ("jsonl", {"pred": np.int64, "label": np.int64}, '{"label": 2, "pred": 1}\n', [[1], [2]]),
        ("csv_scores", {"score": np.float64, "label": np.int64}, "score,label\n0.5, -1\n1e-3,+1\n",
         [[0.5, 1e-3], [-1, 1]]),
        ("jsonl", {"loss": np.float64}, '\x1c{"loss": 0.5}\x85\n\u2028{"loss":1}\u3000\n', [[0.5, 1.0]]),
        ("jsonl", {"pred": np.int64, "label": np.int64}, '\u3000{"pred": 1, "label": 2, "pred": 3}\x1c\n',
         [[3], [2]]),
        ("jsonl", {"score": np.float64, "label": np.int64}, '{"score": -Infinity, "label": 1}\n',
         [[-math.inf], [1]]),
    ],
)
def test_common_spellings_take_the_fast_path(tmp_path, monkeypatch, fmt, fields, text, expected):
    # Neither loadtxt nor the JSONL line parser leaves these to the number-by-number checks.
    path = tmp_path / "input"
    path.write_text(text, newline="")
    monkeypatch.setattr(hio, "_value", unittest.mock.Mock(side_effect=AssertionError("per-line checks")))
    if fmt == "jsonl":
        columns, _ = hio._decode_jsonl(path, path.read_bytes(), fields)
    else:
        columns = hio._loadtxt(path, path.read_bytes(), fields)
    assert [c.tolist() for c in columns] == expected
    assert [c.dtype for c in columns] == list(fields.values())
    assert all(c.flags.c_contiguous for c in columns)


@pytest.mark.parametrize("separators", [(", ", ": "), (",", ":")])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("ending", ["", "\n \r\n\t\n"])
@pytest.mark.parametrize("chunk", [1 << 16, 1])
@pytest.mark.parametrize("reader, records", [
    ("losses", [{"loss": v} for v in (0.5, 1e-5, 0.0, -0.0, 1, 0, 5e-324, 0.1 + 0.2)]),
    ("predictions", [{"pred": p, "label": y} for p, y in ((1, 2), (0, 0), (2**63 - 1, -2**63))]),
    ("scores", [{"score": s, "label": y} for s, y in ((-1.5e300, 1), (2, -1), (-0.0, 1), (1e-320, -1))]),
])
def test_json_dumps_files_take_the_canonical_pass(tmp_path, monkeypatch, reader, records, separators, eol, ending,
                                                  chunk):
    """A file of ``json.dumps`` records is read by the canonical regex alone, as the per-line parser reads it,
    with blank lines after the last record and with a chunk edge after every line."""
    read, csv_format, _ = _READERS[reader]
    path = tmp_path / "input.jsonl"
    path.write_bytes(("".join(json.dumps(r, separators=separators) + eol for r in records) + ending).encode())
    monkeypatch.setattr(hio, "_parse_jsonl", unittest.mock.Mock(side_effect=AssertionError("line parser")))
    monkeypatch.setattr(hio, "_CANONICAL_CHUNK", chunk)
    columns, _ = hio._decode_jsonl(path, path.read_bytes(), hio.FORMATS[csv_format])
    assert [c.dtype for c in columns] == list(hio.FORMATS[csv_format].values())
    with unittest.mock.patch.multiple(hio, **_PER_LINE):
        assert [c.tobytes() for c in columns] == _outcome(read, path, "jsonl", csv_format)


def _losses_as_per_line_parser_reads_them(path, fmt="csv_losses"):
    """read_losses' outcome, which must equal the per-line parser's."""
    return _as_per_line_parser_reads_it(read_losses, path, fmt, "csv_losses")


def test_csv_fast_pass_gives_loadtxt_a_path(tmp_path, monkeypatch):
    # From a path loadtxt's C reader takes the text in chunks; from a handle, one line at a time.
    loadtxt, names = np.loadtxt, []

    def spy(fname, *args, **kwargs):
        names.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    path = tmp_path / "losses.csv"
    path.write_bytes(b"loss\r\n0.5\r\n0.25\r\n")
    assert _losses_as_per_line_parser_reads_them(path) == [np.array([0.5, 0.25]).tobytes()]
    assert [type(name) for name in names] == [str]


@pytest.mark.parametrize("text", [
    b"\rloss\n0.5\n", b"lo\rss\n0.5\n", b"loss\r\r\n0.5\n", b"loss\n0.5\r\r\n", b"loss\n0.5\r0.25\n",
    b"loss\n0.5\n\r", b"loss\r",
])
def test_csv_fast_pass_leaves_a_lone_cr_to_the_per_line_parser(tmp_path, text):
    # Loadtxt, which reads with universal newlines, would end a line there; the per-line parser does not.
    path = tmp_path / "losses.csv"
    path.write_bytes(text)
    assert hio._loadtxt(path, path.read_bytes(), hio.FORMATS["csv_losses"]) is None
    _losses_as_per_line_parser_reads_them(path)


@pytest.mark.parametrize("lone", [False, True])
def test_csv_cr_screen_sees_across_its_read_boundary(tmp_path, lone):
    header, size = b"loss\r\n", 1 << 20
    # Leading spaces put the \r of a record at the last byte of the first read after the header.
    pad = (size - 4) % 5
    data = bytearray(header + b" " * pad + b"0.5\r\n" * ((size - 4 - pad) // 5 + 3))
    at = len(header) + size - 1
    assert data[at:at + 2] == b"\r\n"
    if lone:
        data[at + 1:at + 2] = b"0"
    path = tmp_path / "losses.csv"
    path.write_bytes(bytes(data))
    fast = hio._loadtxt(path, path.read_bytes(), hio.FORMATS["csv_losses"])
    assert (fast is None) == lone
    outcome = _losses_as_per_line_parser_reads_them(path)
    if lone:
        assert "bad loss" in outcome
    else:
        assert outcome == [fast[0].tobytes()]


def test_plain_text_named_as_compressed_is_read_as_text(tmp_path):
    # NumPy's _datasource, behind loadtxt, picks gzip by the extension: loadtxt fails, the per-line parser reads.
    path = tmp_path / "losses.csv.gz"
    path.write_text("loss\n0.5\n0.25\n")
    assert _losses_as_per_line_parser_reads_them(path, "auto") == [np.array([0.5, 0.25]).tobytes()]


def test_gzip_file_forced_to_csv_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "losses.csv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("loss\n0.5\n")
    assert main(["certify", str(path), "--format", "csv_losses", "--rho", "0.1"]) == 1
    assert f"error: {path}:1: not UTF-8 (invalid start byte, byte 0x8b)\n" == capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_named_pipe_is_read_once(tmp_path):
    # A pipe can be read only once, so it skips the fast pass and its errors still name their line.
    pipe = tmp_path / "losses.csv"
    os.mkfifo(pipe)
    outcomes = []

    def read():
        try:
            outcomes.append(read_losses(pipe, "csv_losses").tolist())
        except InputFormatError as exc:
            outcomes.append(str(exc))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    with open(pipe, "w") as fh:  # opens once the reader has
        fh.write("loss\n0.5\nx\n")
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert outcomes == [f"{pipe}:3: bad loss: 'x'"]


_SCORES = b"score,label\n0.9,1\n0.8,1\n0.7,-1\n0.4,1\n0.3,-1\n0.1,-1\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("name, data, command, code, message", [
    ("losses.csv", b"loss\n0.5\n0.2\n", ["certify", "--rho", "0.1"], 0, ""),
    ("losses.csv", b"loss\n0.5\n2\n", ["certify", "--format", "csv_losses", "--rho", "0.1"], 1,
     "3: loss 2.0 is outside [0, 1.0]"),
    ("scores.csv", _SCORES, ["certify-auc", "--rho-conditional", "0.1"], 0, ""),
    ("scores.csv", _SCORES.replace(b"0.8,1", b"0.8,0"), ["certify-auc", "--rho-conditional", "0.1"], 1,
     "3: label 0 is not -1 or +1"),
    ("inst.json", (Path(__file__).parent / "golden" / "inputs" / "inst.json").read_bytes(), ["oracle"], 0, ""),
], ids=["losses-detected", "loss-above-ceiling", "scores", "label-0", "oracle"])
def test_named_pipe_reads_as_a_regular_file(tmp_path, capsys, name, data, command, code, message):
    # Each input is read once, so detection, both parsers and a bad value's line lookup share one read.
    path, report = tmp_path / name, tmp_path / "report.json"

    def run():
        exit_code = main([command[0], str(path), *command[1:], "--output", str(report)])
        written = report.read_bytes() if report.exists() else None
        report.unlink(missing_ok=True)
        return exit_code, written, capsys.readouterr().err

    os.mkfifo(path)
    outcomes = []
    reader = threading.Thread(target=lambda: outcomes.append(run()), daemon=True)
    reader.start()
    with open(path, "wb") as fh:  # opens once the reader has
        fh.write(data)
    reader.join(timeout=30)
    assert not reader.is_alive()
    path.unlink()
    path.write_bytes(data)
    assert outcomes == [run()]
    (exit_code, written, err), = outcomes
    assert exit_code == code and err == (f"error: {path}:{message}\n" if message else "")
    assert (written is None) == bool(message)


@pytest.mark.parametrize("line", [
    '{"loss": 0.5} {"loss": 0.5}', '{"loss": 0.5}{"loss": 0.5}', '{"loss": 0.5,}', '{"loss": 0.5},',
    '[{"loss": 0.5}]', "0.5", '"0.5"', "{", '{"loss": 0.5} x',
])
def test_jsonl_fast_pass_leaves_lines_that_are_not_one_object(tmp_path, monkeypatch, line):
    # With a chunk edge after every line, the canonical pass hands the line parser the file from line 2.
    path = tmp_path / "input.jsonl"
    path.write_text('{"loss": 0.25}\n' + line + "\n", encoding="utf-8")
    monkeypatch.setattr(hio, "_CANONICAL_CHUNK", 1)
    parse = unittest.mock.Mock(wraps=hio._parse_jsonl)
    monkeypatch.setattr(hio, "_parse_jsonl", parse)
    with pytest.raises(InputFormatError, match=r"input\.jsonl:2: "):
        read_losses(path)
    assert parse.call_args.args[2:5] == (len('{"loss": 0.25}\n'), {"loss": np.float64}, 1)


def _canonical_losses(n):
    return b"".join(json.dumps({"loss": i / 300}).encode() + b"\n" for i in range(n))


@pytest.mark.parametrize("chunk", [1, 24, 512])
def test_line_parser_reads_only_from_the_first_chunk_the_regex_misses(tmp_path, monkeypatch, chunk):
    # The last line has an extra key: the chunks before it stay with the regex, the line parser reads its chunk.
    path = tmp_path / "losses.jsonl"
    path.write_bytes(_canonical_losses(299) + b'{"loss": 0.5, "id": 7}\n')
    monkeypatch.setattr(hio, "_CANONICAL_CHUNK", chunk)
    seen = []

    class Spy(hio.TextIOWrapper):
        def __next__(self):
            seen.append(super().__next__())
            return seen[-1]

    monkeypatch.setattr(hio, "TextIOWrapper", Spy)
    assert read_losses(path).tolist() == [*(np.arange(299) / 300), 0.5]
    lines = path.read_text().splitlines(keepends=True)
    assert 1 <= len(seen) <= 1 + chunk // len(lines[0]) and seen == lines[-len(seen):]
    _losses_as_per_line_parser_reads_them(path, "jsonl")


@pytest.mark.parametrize("lines, line_no, message", [
    ([b'{"loss": NaN}'], 300, "loss nan is outside [0, inf]"),
    ([b'{"loss": true}'], 300, "loss must be a number, got true"),
    ([b'{"loss": 0.5\xff}'], 300, "not UTF-8 (invalid start byte, byte 0xff)"),
    ([b'{"loss": true}', b"", b"\xff"], 300, "loss must be a number, got true"),
    ([b"\xff", b"", b'{"loss": tru'], 300, "not UTF-8 (invalid start byte, byte 0xff)"),
    ([b'{"loss": 0.5}', b"", b"\xfe", b'{"loss": true}'], 302, "not UTF-8 (invalid start byte, byte 0xfe)"),
    ([b'{"loss": 0.5}', b" ", b'{"loss": 1, "loss": -1}'], 302, "loss -1.0 is outside [0, inf]"),
    # The bad byte lies beyond the text decoded first, which has a blank line: the second reading counts it once.
    ([b'{"loss": 0.5}', b"", *[b'{"loss": 0.25}'] * 600, b'{"loss": true}', b"\xff"], 902,
     "loss must be a number, got true"),
])
def test_bad_line_after_the_canonical_chunks_is_reported_at_its_line(tmp_path, monkeypatch, lines, line_no, message):
    # The first bad line is reported, whether its fault is UTF-8, JSON or its number, after a blank line too.
    path = tmp_path / "losses.jsonl"
    path.write_bytes(_canonical_losses(299) + b"\n".join(lines) + b"\n")
    monkeypatch.setattr(hio, "_CANONICAL_CHUNK", 512)
    assert _losses_as_per_line_parser_reads_them(path, "jsonl") == f"{path}:{line_no}: {message}"


@pytest.mark.parametrize("command, text", [
    ("certify", '{"loss": 0.5}\n{"loss": 1' + "0" * 5000 + "}\n"),
    ("certify-accuracy", '{"pred": 1, "label": 1}\n{"pred": 1, "label": 1' + "0" * 5000 + "}\n"),
], ids=["loss", "label"])
def test_jsonl_integer_beyond_the_digit_limit_is_a_bad_line(tmp_path, capsys, command, text):
    # JSON's scanner raises a plain ValueError past int()'s digit limit; it is a bad line, not a fault of the file.
    f = tmp_path / "big.jsonl"
    f.write_text(text)
    assert main([arg.format(path=f, dir=tmp_path) for arg in _FILE_COMMANDS[command]]) == 1
    err = f"error: {f}:2: bad JSON: integer of more than {sys.get_int_max_str_digits()} digits\n"
    assert capsys.readouterr().err == err


# Lines for the line-number helper: whitespace str.strip removes (ASCII and not, JSON's or not), and other text.
_SPACES = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
_LINE = (st.text(alphabet=_SPACES, max_size=3)
         | st.text(alphabet=_SPACES + "0.5\xe9\u01fe\u0663", min_size=1, max_size=4))


@settings(max_examples=500, deadline=None)
@given(lines=st.lists(_LINE, max_size=12), header=st.booleans(), final_lf=st.booleans(), data=st.data())
def test_line_of_numbers_records_as_the_line_parsers_read_them(lines, header, final_lf, data):
    """Each record's line, from the bytes, is the one a ``_lines`` enumeration gives the record: a CSV's from
    the byte after its header, a JSONL file's from a handoff after some records one a line, or from byte 0."""
    raw = ("\n".join(["loss"] * header + lines) + "\n" * final_lf).encode("utf-8")
    numbered = list(hio._lines("input", raw))[header:]
    records = [i for i, line in numbered if line.strip()]
    if header:
        line_of = hio._line_of(raw, raw.find(b"\n") + 1, 2)
    else:  # the first ``count`` lines are records, read one a line before the handoff
        leading = next((k for k, (_, line) in enumerate(numbered) if not line.strip()), len(numbered))
        count = data.draw(st.integers(0, leading))
        start = min(len(raw), sum(len(line.encode("utf-8")) for _, line in numbered[:count]))
        line_of = hio._line_of(raw + b"\n\xff \xc2\n", start, count + 1, count)  # bytes not UTF-8 after the records
    assert [line_of(i) for i in range(len(records))] == records


_NAN_LAST = "loss\n0.5\n\n0.25\n\n\nnan\n0.125\n"


@pytest.mark.parametrize("text, read, line, message, per_line", [
    (_NAN_LAST, read_losses, 7, "loss nan is outside [0, inf]", False),
    (_NAN_LAST.replace("\n\n\n", "\n \t\n\x1c\n"), read_losses, 7, "loss nan is outside [0, inf]", True),
    (_NAN_LAST.replace("\n\n\n", "\n\u2028\n\n"), read_losses, 7, "loss nan is outside [0, inf]", True),
    (_NAN_LAST.replace("nan", "2"), functools.partial(read_losses, ceiling=1.0), 7,
     "loss 2.0 is outside [0, 1.0]", False),
    ("score,label\n\n0.5,1\n\n0.25,0\n", read_scores, 5, "label 0 is not -1 or +1", False),
    ("score,label\n\x0b\n0.5,1\n\n0.25,0\n", read_scores, 5, "label 0 is not -1 or +1", True),
], ids=["nan-loadtxt", "nan-per-line", "nan-per-line-u2028", "above-ceiling-loadtxt", "label-loadtxt",
        "label-per-line"])
def test_csv_bad_value_after_blank_lines_is_reported_at_its_line(tmp_path, monkeypatch, text, read, line, message,
                                                                 per_line):
    # A value that fails its check after the parse is named at its line, which the bytes give: the per-line
    # parser runs only for a file loadtxt cannot take, whitespace-only lines here, never to find a line.
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    iter_csv = unittest.mock.Mock(wraps=hio._iter_csv)
    monkeypatch.setattr(hio, "_iter_csv", iter_csv)
    with pytest.raises(InputFormatError) as raised:
        read(path)
    assert str(raised.value) == f"{path}:{line}: {message}"
    assert iter_csv.call_count == per_line


# ---------------------------------------------------------------- CLI fuzz

_FILE_COMMANDS = {
    "certify": ["certify", "{path}", "--rho", "0.1"],
    "certify-accuracy": ["certify-accuracy", "{path}", "--rho", "0.1"],
    "certify-auc": ["certify-auc", "{path}", "--rho-conditional", "0.1"],
    "label-shift": ["label-shift", "--dataset", "{path}", "--trials", "3",
                    "--scatter-csv", "{dir}/scatter.csv", "--curve-csv", "{dir}/curve.csv"],
    "oracle": ["oracle", "{path}"],
}
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["p", "losses", "M", "rho", "loss"]), inner, max_size=4),
    max_leaves=12,
)
_RECORDS = st.one_of(*(_input_text(fields, jsonl) for _, _, fields in _READERS.values()
                       for jsonl in (False, True)))
_FUZZ_BYTES = st.one_of(
    st.binary(max_size=64),
    _JSON_VALUE.map(lambda v: json.dumps(v).encode()),
    st.tuples(_RECORDS.map(str.encode), st.binary(max_size=3), st.integers(0, 200)).map(
        lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:]),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(_FILE_COMMANDS)),
       fmt=st.sampled_from(["auto", "csv_losses", "csv_predictions", "csv_scores", "jsonl"]),
       suffix=st.sampled_from([".csv", ".jsonl", ".json"]), data=_FUZZ_BYTES)
@example(command="certify", fmt="auto", suffix=".jsonl",
         data=('{"loss": ' + _nested(100_000) + "}\n").encode())
@example(command="oracle", fmt="auto", suffix=".json", data=('{"p": ' + _nested(100_000) + "}").encode())
@example(command="certify", fmt="auto", suffix=".csv", data=b"loss\n0.5\n\xff\n")
@example(command="oracle", fmt="auto", suffix=".json", data=b'{"p": [1.0]\xff}')
@example(command="oracle", fmt="auto", suffix=".json",
         data=b'{"p": [1], "losses": [1' + b"0" * 400 + b'], "M": 1, "rho": 0.1}')
def test_cli_any_bytes_exits_with_a_code_and_no_traceback(tmp_path, capsys, command, fmt, suffix, data):
    """Any file, in any format, to any subcommand that reads one: exit 0-3 and no traceback."""
    path = tmp_path / f"input{suffix}"
    path.write_bytes(data)
    argv = [arg.format(path=path, dir=tmp_path) for arg in _FILE_COMMANDS[command]]
    if command != "oracle":
        argv += ["--format", fmt]
    assert main(argv) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------- seeded fuzz of the golden inputs

# golden input -> the subcommands that read it, each with the reader and CSV format it reads the input by
# (None: the oracle, which reads one JSON instance)
_LOSSES = (functools.partial(read_losses, ceiling=1.0), "csv_losses")  # certify's default --max-loss
_PREDICTIONS = (read_predictions, "csv_predictions")
_READ_BY = {
    "losses.csv": {"certify": _LOSSES},
    "losses.jsonl": {"certify": _LOSSES},
    "preds.csv": {"certify-accuracy": _PREDICTIONS, "label-shift": _PREDICTIONS},
    "scores.csv": {"certify-auc": (read_scores, "csv_scores")},
    "inst.json": {"oracle": None},
    "off_support.json": {"oracle": None},
}
_NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


def _mutants(data, rng):
    """One seeded mutant of ``data`` of each kind: a flipped bit, a truncation, an integer literal beyond int()'s
    digit limit, a NUL, a CR, a BOM, a JSON key given twice (the last value wins) and a huge exponent."""
    at = rng.randrange(len(data))
    number = rng.choice(list(_NUMBER.finditer(data)))
    keys = list(re.finditer(rb'"\w+": ?', data))
    yield data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    yield data[:at]
    yield data[:number.start()] + b"1" + b"0" * 5000 + data[number.end():]
    yield data[:at] + b"\0" + data[at:]
    yield data[:at] + b"\r" + data[at:]
    yield b"\xef\xbb\xbf" + data
    if keys:
        key = rng.choice(keys)
        yield data[:key.start()] + key[0] + rng.choice([b"-1", b"2", b"true", b"0.5"]) + b", " + data[key.start():]
    yield data[:number.start()] + rng.choice([b"1e999999", b"-1e400", b"1e-400", b"2e308"]) + data[number.end():]


def _run(argv, tmp_path):
    """main's exit code and every file it writes, each removed once read."""
    code = main(argv + ["--output", str(tmp_path / "report.json")])
    outputs = {}
    for name in ("report.json", "scatter.csv", "curve.csv"):
        if (tmp_path / name).exists():
            outputs[name] = (tmp_path / name).read_bytes()
            (tmp_path / name).unlink()
    return code, outputs


@pytest.mark.parametrize("name", sorted(_READ_BY))
def test_every_golden_input_mutated_exits_0_or_1_at_its_first_bad_line(tmp_path, capsys, name):
    """Each mutant, to each subcommand that reads it, in process: exit 0 with the report the library gives on the
    reference reader's numbers, or exit 1 naming the first bad line that reader finds, as ``file:N:`` with N >= 1.
    ``file:0`` is left for a fault of the whole sample (n < 2, one AUC class) or of an oracle instance, a single
    JSON document, other than a byte that is not UTF-8 or a JSON syntax error."""
    golden = (Path(__file__).parent / "golden" / "inputs" / name).read_bytes()
    path = tmp_path / "in" / name
    path.parent.mkdir()
    for seed in range(20):
        for data in _mutants(golden, random.Random(f"{name}-{seed}")):
            path.write_bytes(data)
            for command, reader in _READ_BY[name].items():
                argv = [arg.format(path=path, dir=tmp_path) for arg in _FILE_COMMANDS[command]]
                code, outputs = _run(argv, tmp_path)
                err = capsys.readouterr().err
                if reader is None:  # the oracle: a byte not UTF-8 or a JSON syntax error at its line, else line 0
                    try:
                        json.loads("".join(line for _, line in hio._lines(path, data)))
                    except InputFormatError as exc:
                        assert (code, err) == (1, f"error: {exc}\n") and exc.line_no >= 1
                        continue
                    except json.JSONDecodeError as exc:
                        assert exc.lineno >= 1
                        assert (code, err) == (1, f"error: {path}:{exc.lineno}: bad JSON: {exc.msg}\n")
                        continue
                    except (RecursionError, ValueError):  # nested too deeply, or beyond int()'s digit limit
                        pass
                    try:
                        instance = DiscreteInstance(*read_instance(path))
                    except ValueError as exc:  # any other fault, the instance's own checks' too, at line 0
                        assert (code, err) == (1, f"error: {path}:0: {str(exc).removeprefix(f'{path}:0: ')}\n")
                        continue
                    echo = json.loads(outputs["report.json"])["instance"]
                    assert (code, echo) == (0, json.loads(instance.to_json()))
                    continue
                fmt = "jsonl" if name.endswith(".jsonl") else "auto"  # as detected: the line parser is checked too
                outcome = _as_per_line_parser_reads_it(reader[0], path, fmt, reader[1])
                if isinstance(outcome, str):  # the reader's first bad line
                    assert (code, err) == (1, f"error: {outcome}\n")
                    assert re.match(rf"{re.escape(str(path))}:[1-9][0-9]*: ", outcome)
                    continue
                with unittest.mock.patch.multiple(hio, **_PER_LINE):
                    assert (code, outputs) == _run(argv, tmp_path)
                    assert err == capsys.readouterr().err
                assert code == 0 or err.startswith(f"error: {path}:0: ")
