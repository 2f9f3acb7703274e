"""hellcert benchmark: one command, three workloads, times at reference host speed.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The seeded input generator runs first, in
its own process and untimed.  The run then repeats whole rounds of its
workload's operations until ``--seconds`` have passed, checks every output
apart from the program, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of the workload.  ``--trace 1``
is the separate traced run: it runs one round of every workload with spans
around each layer, whatever ``--workload`` names, then one more cli-mix
round for memory peaks, and reports the per-layer metrics.  See
perfbench/README.md.
"""

import argparse
import collections
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# Single-threaded BLAS here and in every child; must precede the NumPy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
KEEP_INPUT_SEEDS = 4
SETUP_REPEATS = 7
# The reference kernel each workload is scaled by: the one whose work resembles its own.
KERNEL = {"cli-mix": "interpreter", "oracle-batch": "interpreter", "sweep": "array"}
WORKLOADS = tuple(KERNEL)


@dataclass
class Sample:
    kind: str
    scaled: float
    raw: float
    ref: float
    rss_mb: float
    failed: bool  # the program failed or its output failed a check
    wrong: bool  # the output failed a check


def parse_args(argv):
    ap = argparse.ArgumentParser(description="hellcert benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    return args


def ensure_inputs(seed: int) -> str:
    """Generate (or reuse) the seed's inputs in a separate process; keep a few recent seeds."""
    inputs = os.path.join(CACHE, "inputs")
    # Keyed by the generator's source too, so a changed generator never reuses stale files.
    with open(os.path.join(HERE, "gen_inputs.py"), "rb") as fh:
        version = hashlib.sha256(fh.read()).hexdigest()[:12]
    out = os.path.join(inputs, f"seed-{seed}-{version}")
    subprocess.run([sys.executable, os.path.join(HERE, "gen_inputs.py"), "--seed", str(seed),
                    "--out", out], check=True)
    os.utime(out)
    seeds = sorted((os.path.join(inputs, d) for d in os.listdir(inputs)), key=os.path.getmtime)
    for old in seeds[:-KEEP_INPUT_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return out


def measure(probe, kernel, op) -> Sample:
    result, scaled, raw, ref = probe.time_call(kernel, op.run)
    rss = 0.0
    if isinstance(result, workloads.ChildResult):
        rss = result.peak_rss_mb
        if result.exit_code != 0:
            print(f"FAILED {op.kind}: exit code {result.exit_code}", file=sys.stderr)
            return Sample(op.kind, scaled, raw, ref, rss, True, False)
    problems = op.check(result)
    if problems:
        print(f"FAILED {op.kind}: {'; '.join(problems[:3])}", file=sys.stderr)
    return Sample(op.kind, scaled, raw, ref, rss, bool(problems), bool(problems))


def run_rounds(probe, kernel, make_round, seconds):
    """Whole rounds until the time is up; returns (samples, rounds)."""
    samples, rounds = [], 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        samples.extend(measure(probe, kernel, op) for op in make_round(rounds))
        rounds += 1
    return samples, rounds


def end_to_end(workload, samples, setup, round_len, self_rss_mb):
    """The end-to-end metrics: scaled values in the JSON, raw ones printed beside them.

    op_tail_s exists only where a round has at least forty operations
    (oracle-batch).  It is printed, not put in the JSON, because every
    workload's JSON carries the same metric set.
    """
    ok = [s for s in samples if not s.failed]
    timed = ok or samples  # keep a result line even when every operation failed
    metrics = {
        "setup_s": (statistics.median(s.scaled for s in setup),
                    statistics.median(s.raw for s in setup), "s"),
        "ops_per_s": (len(ok) / sum(s.scaled for s in samples),
                      len(ok) / sum(s.raw for s in samples), "op/s"),
        "op_p50_s": (statistics.median(s.scaled for s in timed),
                     statistics.median(s.raw for s in timed), "s"),
    }
    rss = self_rss_mb if workload == "oracle-batch" else max(s.rss_mb for s in samples)
    metrics["peak_rss_mb"] = (rss, rss, "MB")
    printed = dict(metrics)
    tail = hostclock.tail_percentile(round_len)
    if tail is not None:
        p = tail[0]
        printed["op_tail_s"] = (hostclock.nearest_rank([s.scaled for s in timed], p),
                                hostclock.nearest_rank([s.raw for s in timed], p), "s")
        print(f"op_tail_s is the p{p} of {len(ok)} operations ({round_len} per round)")
    ref_ms = statistics.median(s.ref for s in samples) * 1e3
    kernel = KERNEL[workload]
    print(f"host.ref_ms {ref_ms:.5f} ({kernel} kernel, nominal {hostclock.KERNELS[kernel][1] * 1e3:.5f})")
    for name, (value, raw, unit) in printed.items():
        print(f"{name:12s} {value:.6g} {unit}   raw {raw:.6g}")
    by_kind = collections.defaultdict(list)
    for s in ok:
        by_kind[s.kind].append(s)
    for kind, group in by_kind.items():
        print(f"  {kind:16s} n={len(group):4d} p50 {statistics.median(s.scaled for s in group):.5g} s"
              f"   raw {statistics.median(s.raw for s in group):.5g} s")
    return {name: {"value": value, "unit": unit} for name, (value, _, unit) in metrics.items()}


def traced_pass(probe, ctx, seconds):
    """One round of every workload with spans, plus a cli-mix round for memory peaks.

    Returns (samples, summaries, peak summaries); summaries carry the scale
    from the measured to the nominal reference speed of their workload's kernel.
    """
    tracer = tracing.Tracer()
    tracer.install(tracing.ORACLE_SPANS)
    oracle_ops = workloads.oracle_round(ctx)
    samples, summaries, peaks = [], [], []
    by_workload = collections.defaultdict(list)
    start, passes = time.perf_counter(), 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for name, ops in (("cli-mix", workloads.cli_round(ctx)),
                          ("oracle-batch", oracle_ops),
                          ("sweep", [workloads.sweep_op(ctx, passes)])):
            tracer.reset()
            nominal = hostclock.KERNELS[KERNEL[name]][1]
            batch = [measure(probe, KERNEL[name], op) for op in ops]
            for op, sample in zip(ops, batch):
                if op.trace is not None and not sample.failed:
                    summaries.append((op.trace(), nominal / sample.ref))
            if name == "oracle-batch":
                ref = statistics.median(s.ref for s in batch)
                summaries.append((tracer.summary(), nominal / ref))
            samples.extend(batch)
            by_workload[name].extend(batch)
        ctx.peaks = True
        for op in workloads.cli_round(ctx):
            sample = measure(probe, KERNEL["cli-mix"], op)
            samples.append(sample)
            if not sample.failed:
                peaks.append(op.trace())
        ctx.peaks = False
        passes += 1
    for name, batch in by_workload.items():
        ok = sum(not s.failed for s in batch)
        print(f"traced {name}: ops_per_s {ok / sum(s.scaled for s in batch):.6g} op/s "
              f"(raw {ok / sum(s.raw for s in batch):.6g}) over {len(batch)} operations")
    return samples, summaries, peaks


LAYER_UNITS = {
    "host.ref_ms": "ms",
    "cli.self_s": "s",
    "io.read_s": "s", "io.read_records": "count", "io.read_records_per_s": "1/s",
    "io.read_peak_mb": "MB", "io.write_s": "s", "io.write_rows": "count",
    "finite_sample.sample_s": "s", "finite_sample.cert_s": "s",
    "losses.auc_s": "s", "losses.auc_pairs": "count", "losses.auc_peak_mb": "MB",
    "losses.pair_sample_s": "s", "losses.zero_one_s": "s",
    "experiments.label_shift_s": "s", "experiments.label_shift_trials_per_s": "1/s",
    "experiments.mixture_s": "s",
    "oracle.sup_s": "s", "oracle.inf_s": "s", "oracle.instances": "count",
    "oracle.on_support_p50_s": "s", "oracle.off_support_p50_s": "s",
    "oracle.pga_chosen": "count", "oracle.max_certified_gap": "loss",
    "network.train_s": "s", "network.param_grads_s": "s", "network.param_grads_calls": "count",
    "network.spectral_normalize_s": "s", "network.spectral_normalize_calls": "count",
    "network.input_grads_s": "s", "network.input_grads_calls": "count",
    "synthetic.dual_s": "s", "synthetic.inner_ascent_calls": "count",
    "synthetic.inner_ascent_distinct": "count", "synthetic.inner_ascent_useful_ratio": "ratio",
    "synthetic.gramian_s": "s", "synthetic.lipschitz_s": "s",
}


def _ratio(a, b):
    return a / b if b else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer(ref_ms, summaries, peak_summaries):
    """Merge the traced summaries (self seconds scaled per operation) into the layer metrics."""
    self_s, counts, peaks = collections.defaultdict(float), collections.Counter(), {}
    instances, gap = [], 0.0
    for summary in peak_summaries:
        for name, peak in summary["peak_bytes"].items():
            peaks[name] = max(peaks.get(name, 0), peak)
    for summary, scale in summaries:
        for name, secs in summary["self_s"].items():
            self_s[name] += secs * scale
        counts.update(summary["counts"])
        instances.extend((secs * scale, on) for secs, on in summary["oracle_instances"])
        gap = max(gap, summary["oracle_max_gap"])
    mb = 1024.0 * 1024.0
    on = [t for t, flag in instances if flag]
    off = [t for t, flag in instances if not flag]
    values = {
        "host.ref_ms": ref_ms,
        "cli.self_s": self_s["cli"],
        "io.read_s": self_s["io.read"],
        "io.read_records": counts["io.read_records"],
        "io.read_records_per_s": _ratio(counts["io.read_records"], self_s["io.read"]),
        "io.read_peak_mb": peaks.get("io.read", 0) / mb,
        "io.write_s": self_s["io.write"],
        "io.write_rows": counts["io.write_rows"],
        "finite_sample.sample_s": self_s["finite_sample.sample"],
        "finite_sample.cert_s": self_s["finite_sample.cert"],
        "losses.auc_s": self_s["losses.auc"],
        "losses.auc_pairs": counts["losses.auc_pairs"],
        "losses.auc_peak_mb": peaks.get("losses.auc", 0) / mb,
        "losses.pair_sample_s": self_s["losses.pair_sample"],
        "losses.zero_one_s": self_s["losses.zero_one"],
        "experiments.label_shift_s": self_s["experiments.label_shift"],
        "experiments.label_shift_trials_per_s":
            _ratio(counts["experiments.label_shift_trials"], self_s["experiments.label_shift"]),
        "experiments.mixture_s": self_s["experiments.mixture"],
        "oracle.sup_s": self_s["oracle.sup"],
        "oracle.inf_s": self_s["oracle.inf"],
        "oracle.instances": len(instances),
        "oracle.on_support_p50_s": _median(on),
        "oracle.off_support_p50_s": _median(off),
        "oracle.pga_chosen": counts["oracle.pga_chosen"],
        "oracle.max_certified_gap": gap,
        "network.train_s": self_s["network.train"],
        "network.param_grads_s": self_s["network.param_grads"],
        "network.param_grads_calls": counts["network.param_grads_calls"],
        "network.spectral_normalize_s": self_s["network.spectral_normalize"],
        "network.spectral_normalize_calls": counts["network.spectral_normalize_calls"],
        "network.input_grads_s": self_s["network.input_grads"],
        "network.input_grads_calls": counts["network.input_grads_calls"],
        "synthetic.dual_s": self_s["synthetic.dual"],
        "synthetic.inner_ascent_calls": counts["synthetic.inner_ascent_calls"],
        "synthetic.inner_ascent_distinct": counts["synthetic.inner_ascent_distinct"],
        "synthetic.inner_ascent_useful_ratio":
            _ratio(counts["synthetic.inner_ascent_distinct"], counts["synthetic.inner_ascent_calls"]),
        "synthetic.gramian_s": self_s["synthetic.gramian"],
        "synthetic.lipschitz_s": self_s["synthetic.lipschitz"],
    }
    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {LAYER_UNITS[name]}")
    return {name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hellcert", "cli.py")):
        print(f"error: no hellcert sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))  # oracle-batch runs hellcert in this process
    cpu = hostclock.pin_to_one_cpu()
    inputs = ensure_inputs(args.seed)
    os.makedirs(CACHE, exist_ok=True)
    work = os.path.join(CACHE, f"work-{os.getpid()}")
    os.makedirs(work)
    ctx = workloads.Context(inputs=inputs, work=work, seed=args.seed, traced=bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} cpu {cpu} trace {args.trace}")
    try:
        # Compile the package's bytecode once, untimed, as an installed copy would have it.
        workloads.run_child(["-c", "import hellcert.cli"])
        kernel = KERNEL[args.workload]
        with hostclock.Probe(hostclock.KERNELS if args.trace else [kernel]) as probe:
            setup = [measure(probe, kernel, workloads.setup_op()) for _ in range(SETUP_REPEATS)]
            if args.trace:
                samples, summaries, peaks = traced_pass(probe, ctx, args.seconds)
                ref_ms = statistics.median(d for _, d in probe.samples["interpreter"]) * 1e3
            elif args.workload == "cli-mix":
                samples, rounds = run_rounds(probe, kernel, lambda r: workloads.cli_round(ctx), args.seconds)
                round_len = len(samples) // rounds
            elif args.workload == "oracle-batch":
                ops = workloads.oracle_round(ctx)
                samples, rounds = run_rounds(probe, kernel, lambda r: ops, args.seconds)
                round_len = len(ops)
            else:
                samples, rounds = run_rounds(probe, kernel, lambda r: [workloads.sweep_op(ctx, r)],
                                             args.seconds)
                round_len = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(s.failed for s in samples + setup)
    if args.trace:
        metrics = per_layer(ref_ms, summaries, peaks)
    else:
        print(f"{len(samples)} operations in {rounds} rounds, {failed} failed")
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(args.workload, samples, setup, round_len, self_rss)
    correct = not any(s.wrong for s in samples)
    print(json.dumps({"correct": correct, "attempted": len(samples) + len(setup),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
