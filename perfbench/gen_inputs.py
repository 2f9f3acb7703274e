"""Seeded input generator for the benchmark.

Runs in its own process before anything is timed:

    python3 perfbench/gen_inputs.py --seed 7 --out perfbench/.cache/inputs/seed-7

The same seed always writes the same files.  Besides the program's input
files it writes the ground truth the output checks need (``truth.json`` and
``.npy`` arrays); the program itself only ever sees the input files.
A ``done`` marker makes a second call with the same seed a no-op.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

CERTIFY_LINES = 1_000_000
JSONL_LINES = 200_000
ACCURACY_ROWS = 50_000
ACCURACY_CLASSES = 1000
ACCURACY_FLIP_RATE = 0.24
AUC_ROWS = 100_000
CLI_ORACLE_SHAPES = ((2, False), (16, True), (32, False))  # (support size, points off support)
ORACLE_ROUND = 200
MAX_SUPPORT = 32


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _floats(values):
    # repr round-trips binary64, so the parsed file equals the saved array.
    return "\n".join(map(repr, values.tolist()))


def oracle_instance(rng, k, off_support, rho):
    """One instance on k points; with off_support, a random nonempty proper subset gets p = 0."""
    p = rng.dirichlet(np.ones(k))
    if off_support:
        p[rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 0.0
    p = p / p.sum()
    return {"p": p.tolist(), "losses": rng.random(k).tolist(), "M": 1.0, "rho": float(rho)}


def oracle_round(seed):
    """The fixed set of distinct instances one oracle-batch round solves.

    The make-up is the same for every seed, so that seeds change values, not
    the mix: instance i has 2 + i % 31 points (every tenth has two), a third
    of them (i % 3 == 1) put points off the support, and the radii are
    stratified over [0, 0.98).
    """
    rng = np.random.default_rng([seed, 2])
    radii = 0.98 * (rng.permutation(ORACLE_ROUND) + rng.random(ORACLE_ROUND)) / ORACLE_ROUND
    return [
        oracle_instance(rng, 2 if i % 10 == 0 else 2 + i % (MAX_SUPPORT - 1), i % 3 == 1, radii[i])
        for i in range(ORACLE_ROUND)
    ]


def generate(seed: int, out: str) -> None:
    rng = np.random.default_rng([seed, 1])
    truth = {"seed": seed}

    losses = rng.beta(2.0, 5.0, size=CERTIFY_LINES)
    np.save(os.path.join(out, "losses.npy"), losses)
    _write_text(os.path.join(out, "losses.csv"), "loss\n" + _floats(losses) + "\n")

    jl = rng.beta(5.0, 2.0, size=JSONL_LINES)
    np.save(os.path.join(out, "losses_jsonl.npy"), jl)
    _write_text(
        os.path.join(out, "losses.jsonl"),
        "".join('{"loss": %r}\n' % v for v in jl.tolist()),
    )

    labels = rng.integers(0, ACCURACY_CLASSES, size=ACCURACY_ROWS)
    flip = rng.random(ACCURACY_ROWS) < ACCURACY_FLIP_RATE
    preds = np.where(flip, (labels + rng.integers(1, ACCURACY_CLASSES, size=ACCURACY_ROWS))
                     % ACCURACY_CLASSES, labels)
    np.save(os.path.join(out, "pred_labels.npy"), np.stack([preds, labels]))
    truth["accuracy_flips"] = int(flip.sum())
    truth["accuracy_n"] = ACCURACY_ROWS
    _write_text(
        os.path.join(out, "preds.csv"),
        "pred,label\n" + "".join(f"{p},{y}\n" for p, y in zip(preds.tolist(), labels.tolist())),
    )

    # Exactly half positives, so n+ n- (and the all-pairs matrix) has one size
    # for every seed; two-decimal scores make ties common.
    auc_labels = np.repeat([1, -1], AUC_ROWS // 2)
    rng.shuffle(auc_labels)
    scores = np.round(rng.standard_normal(AUC_ROWS) + 0.8 * (auc_labels == 1), 2)
    np.save(os.path.join(out, "scores.npy"), np.stack([scores, auc_labels]))
    _write_text(
        os.path.join(out, "scores.csv"),
        "score,label\n"
        + "".join(f"{s!r},{y}\n" for s, y in zip(scores.tolist(), auc_labels.tolist())),
    )

    cli_rng = np.random.default_rng([seed, 3])
    for i, (k, off_support) in enumerate(CLI_ORACLE_SHAPES):
        inst = oracle_instance(cli_rng, k, off_support, 0.98 * cli_rng.random())
        _write_text(os.path.join(out, f"instance_{i}.json"), json.dumps(inst))

    _write_text(os.path.join(out, "oracle_round.json"), json.dumps(oracle_round(seed)))
    _write_text(os.path.join(out, "truth.json"), json.dumps(truth))
    _write_text(os.path.join(out, "done"), "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("seed must be non-negative")
    if os.path.exists(os.path.join(args.out, "done")):
        return 0
    os.makedirs(args.out, exist_ok=True)
    generate(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
