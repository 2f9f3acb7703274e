"""Operation timing scaled to a nominal reference host speed.

The speed of a shared vCPU drifts by a third within seconds, so raw wall
time cannot hold a tight bound.  The benchmark pins itself (and the
processes it starts) to one CPU and runs a fixed reference kernel on that
CPU, in a thread of its own, all through every timed operation.  The
kernel's thread CPU time keeps measuring host speed while a long native
call holds the main thread.  An operation's time is then

    own CPU seconds * nominal kernel seconds / measured kernel seconds

where the measured kernel seconds are the median kernel duration seen
during the operation.  The own CPU seconds are the calling thread's plus
those of the child it waited for: the wall time minus the probe's time when
nothing else runs on the CPU, and still the operation's own time when
something does.  Raw wall seconds are kept beside every scaled value.

Host slowdowns do not hit every kind of work alike, so a workload is scaled
by the kernel whose work resembles its own (see KERNELS).
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

import numpy as np

# Sleep between kernel runs: the probe takes about a tenth of the CPU.
PROBE_PERIOD_S = 0.004
# Fewest kernel samples a scale factor rests on; short operations borrow
# samples from just before they started.
MIN_SAMPLES = 15

_SMALL = np.linspace(0.0, 1.0, 64)
_ARRAY = np.linspace(0.0, 1.0, 65536)  # 512 KiB: stays in a 2 MiB L2
_ARRAY_OUT = np.empty_like(_ARRAY)  # no allocation, so malloc's state cannot change the timing


def interpreter_kernel() -> float:
    """Interpreter work and small NumPy calls, like the CLI's parsing and the oracle."""
    s = 0
    for i in range(1500):
        s += (i * i) % 7
    a = _SMALL
    for _ in range(60):
        a = np.sqrt(a * a + 1.0)
    return s + float(a.sum())


def array_kernel() -> float:
    """NumPy passes over an L2-sized array, like training and the inner ascents."""
    total = 0.0
    for _ in range(2):
        np.multiply(_ARRAY, _ARRAY, out=_ARRAY_OUT)
        np.add(_ARRAY_OUT, 1.0, out=_ARRAY_OUT)
        total += float(np.sqrt(_ARRAY_OUT, out=_ARRAY_OUT).sum())
    return total


# name -> (kernel, its duration on the nominal host).  The nominal durations
# are near the medians measured during runs on a 2 GHz Xeon vCPU, so scaled
# and raw seconds are of the same size there.  Timed beside repeated
# operations, the interpreter kernel left the smallest spread in scaled
# oracle, certify, AUC and label-shift times, but over-corrected the sweep,
# whose time grew only as its 0.6th power; the array kernel cut the sweep's
# spread from 7-18% to 3-6%.
KERNELS = {
    "interpreter": (interpreter_kernel, 0.0003),
    "array": (array_kernel, 0.0005),
}


def normalize(own_s: float, ref_s: float, nominal_s: float) -> float:
    """Scale an operation's own time from the measured to the nominal reference speed."""
    if ref_s <= 0.0 or nominal_s <= 0.0:
        raise ValueError("reference durations must be positive")
    return own_s * nominal_s / ref_s


def tail_percentile(n: int):
    """Highest whole percentile with at least ten of n samples beyond it.

    Uses the nearest-rank definition (the p-th percentile is the
    ceil(p n / 100)-th smallest sample).  Returns (p, zero-based index), or
    None under forty samples, where such a percentile would be no tail.
    """
    if n < 40:
        return None
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, rank - 1
    return None


def nearest_rank(values, p: int) -> float:
    """The p-th percentile of values by nearest rank."""
    values = sorted(values)
    return values[max(0, math.ceil(p * len(values) / 100) - 1)]


class Probe:
    """Background thread that runs the named kernels, one after another, every few milliseconds."""

    def __init__(self, kernels):
        self.samples = {name: [] for name in kernels}  # name -> [(perf_counter at end, CPU seconds)]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="ref-probe", daemon=True)

    def _run(self):
        for name in self.samples:
            KERNELS[name][0]()  # warm caches before the first sample
        while not self._stop.wait(PROBE_PERIOD_S):
            for name, samples in self.samples.items():
                c0 = time.thread_time()
                KERNELS[name][0]()
                c1 = time.thread_time()
                samples.append((time.perf_counter(), c1 - c0))

    def __enter__(self) -> "Probe":
        self._thread.start()
        while min(len(v) for v in self.samples.values()) < MIN_SAMPLES:
            time.sleep(PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def ref_between(self, kernel: str, t0: float, t1: float) -> float:
        """Median kernel duration over [t0, t1], widened back to MIN_SAMPLES samples."""
        samples = self.samples[kernel][:]  # the probe thread appends concurrently
        inside = [d for t, d in samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            before = [d for t, d in samples if t <= t1]
            inside = before[-MIN_SAMPLES:]
        return statistics.median(inside)

    def time_call(self, kernel: str, fn, *args):
        """Run fn(*args); return (result, scaled seconds, raw wall seconds, reference seconds).

        A result with a ``cpu_s`` attribute reports the CPU seconds of a
        child process the call waited for; they count as the call's own.
        """
        t0 = time.perf_counter()
        c0 = time.thread_time()
        result = fn(*args)
        own = time.thread_time() - c0 + getattr(result, "cpu_s", 0.0)
        t1 = time.perf_counter()
        ref = self.ref_between(kernel, t0, t1)
        return result, normalize(own, ref, KERNELS[kernel][1]), t1 - t0, ref


def pin_to_one_cpu() -> int:
    """Pin this process (and every process it starts) to its last allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
