"""Spans around the public functions of each hellcert layer, for the traced run.

A span wraps a function at the name its caller looks up (``hellcert.cli``'s
``read_losses``, ``hellcert.synthetic``'s ``train_network``, ...), so the
program's own files stay untouched.  Spans are timed with the calling
thread's CPU clock, which the reference probe running beside them does not
advance.  They are kept in memory and written out once, when the traced
process ends.  A span's self time is its duration minus its child spans.

With ``track_memory`` the tracer runs ``tracemalloc`` inside the spans named
in PEAK_SPANS, and only there, to record their peak allocation.  That slows
those spans down, so the traced run takes its times from a pass without it.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import importlib
import json
import time
import tracemalloc

# (module, attribute the caller looks up, span name)
CLI_SPANS = [
    ("hellcert.cli", "main", "cli"),
    ("hellcert.cli", "read_losses", "io.read"),
    ("hellcert.cli", "read_predictions", "io.read"),
    ("hellcert.cli", "read_scores", "io.read"),
    ("hellcert.cli", "write_csv", "io.write"),
    ("hellcert.cli", "json_document", "io.write"),
    ("hellcert.cli", "EmpiricalSample", "finite_sample.sample"),
    ("hellcert.losses", "EmpiricalSample", "finite_sample.sample"),
    ("hellcert.cli", "corollary_upper_bound", "finite_sample.cert"),
    ("hellcert.cli", "corollary_lower_bound", "finite_sample.cert"),
    ("hellcert.cli", "max_valid_radius_empirical", "finite_sample.cert"),
    ("hellcert.cli", "max_valid_radius_empirical_lower", "finite_sample.cert"),
    ("hellcert.cli", "auc_estimate", "losses.auc"),
    ("hellcert.experiments", "auc_estimate", "losses.auc"),
    ("hellcert.cli", "auc_pair_sample", "losses.pair_sample"),
    ("hellcert.cli", "zero_one_stats", "losses.zero_one"),
    ("hellcert.cli", "label_shift_experiment", "experiments.label_shift"),
    ("hellcert.cli", "mixture_experiment", "experiments.mixture"),
    ("hellcert.cli", "worst_case_sup", "oracle.sup"),
    ("hellcert.cli", "worst_case_inf", "oracle.inf"),
    ("hellcert.cli", "compare_certificates", "synthetic.sweep"),
    ("hellcert.synthetic", "train_network", "network.train"),
    ("hellcert.network", "batch_loss_and_param_grads", "network.param_grads"),
    ("hellcert.network", "spectral_normalize", "network.spectral_normalize"),
    ("hellcert.synthetic", "per_sample_losses_and_input_grads", "network.input_grads"),
    ("hellcert.synthetic", "wasserstein_dual_certificate", "synthetic.dual"),
    ("hellcert.synthetic", "gramian_certificate_on_task", "synthetic.gramian"),
    ("hellcert.synthetic", "lipschitz_certificate", "synthetic.lipschitz"),
]

# The oracle-batch workload calls the oracle module's functions directly.
ORACLE_SPANS = [
    ("hellcert.oracle", "worst_case_sup", "oracle.sup"),
    ("hellcert.oracle", "worst_case_inf", "oracle.inf"),
]

PEAK_SPANS = {"io.read", "losses.auc"}


def self_times(spans):
    """Sum of self time per span name; spans are (name, start, end, parent index or -1)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = collections.defaultdict(float)
    for i, (name, t0, t1, _) in enumerate(spans):
        out[name] += (t1 - t0) - child[i]
    return dict(out)


class Tracer:
    """Records spans and counts in memory; ``summary`` reduces them once at the end."""

    def __init__(self, track_memory=False):
        self.track_memory = track_memory
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = collections.Counter()
        self.peaks = collections.defaultdict(int)
        self.oracle = []  # (instance key, on support, sup or inf duration)
        self.max_gap = 0.0
        self._ascent_keys = set()
        self._stack = []

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.thread_time(), None, parent])
        self._stack.append(len(self.spans) - 1)
        tracked = self.track_memory and name in PEAK_SPANS
        if tracked:
            tracemalloc.start()
        return tracked

    def _exit(self, name, tracked):
        if tracked:
            self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        idx = self._stack.pop()
        self.spans[idx][2] = time.thread_time()
        self.counts[name + "_calls"] += 1
        return self.spans[idx][2] - self.spans[idx][1]

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "io.write" and len(args) == 3:
                args = (args[0], args[1], self._count_rows(args[2]))
            if name == "losses.auc":
                self.counts["losses.auc_pairs"] += int(args[0].positives.size * args[0].negatives.size)
            if name == "experiments.label_shift":
                self.counts["experiments.label_shift_trials"] += int(kwargs["trials"])
            tracked = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._exit(name, tracked)
            if name == "io.read":
                self.counts["io.read_records"] += len(result[0] if isinstance(result, tuple) else result)
            if name.startswith("oracle."):
                inst = args[0]
                self.oracle.append((id(inst), bool((inst.p.probs > 0.0).all()), dur))
                self.counts["oracle.pga_chosen"] += result.method == "projected_gradient"
                self.max_gap = max(self.max_gap, float(result.certified_gap))
            return result

        return traced

    def _count_rows(self, rows):
        for row in rows:
            self.counts["io.write_rows"] += 1
            yield row

    def _wrap_ascent(self, fn):
        @functools.wraps(fn)
        def counted(value_and_grad, x0, gamma, *args, **kwargs):
            self.counts["synthetic.inner_ascent_calls"] += 1
            # One network per process, so (gamma, x0) names the problem.
            self._ascent_keys.add((float(gamma), hashlib.blake2b(x0.tobytes()).hexdigest()))
            return fn(value_and_grad, x0, gamma, *args, **kwargs)

        return counted

    def install(self, targets):
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name))
        if any(m == "hellcert.synthetic" for m, _, _ in targets):
            synthetic = importlib.import_module("hellcert.synthetic")
            synthetic.maximize_penalized = self._wrap_ascent(synthetic.maximize_penalized)

    def summary(self) -> dict:
        """Self seconds and call counts per span, counters, memory peaks and oracle timings."""
        per_instance = {}
        for key, on_support, dur in self.oracle:
            t, _ = per_instance.get(key, (0.0, on_support))
            per_instance[key] = (t + dur, on_support)
        counts = dict(self.counts)
        counts["synthetic.inner_ascent_distinct"] = len(self._ascent_keys)
        return {
            "self_s": self_times(self.spans),
            "counts": counts,
            "peak_bytes": dict(self.peaks),
            "oracle_instances": list(per_instance.values()),
            "oracle_max_gap": self.max_gap,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)
