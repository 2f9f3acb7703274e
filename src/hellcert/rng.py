"""Seeded, counter-based random streams.

Every stochastic component in the library draws from a Philox counter-based
generator keyed by (seed, stream_index), two 64-bit words, each in
[0, 2**64).  The same key always yields the same stream on any platform, so
reports and experiment CSVs are byte-reproducible on one machine, and on any
CPU where no number passes through BLAS or LAPACK (the label-shift scatter).
Numbers that do (the sweep's networks, the oracle's products) match across
CPUs only to a relative 1e-13, the tolerance of the golden tests.  Reports
embed :data:`GENERATOR_NAME` so the provenance of random draws is recorded
alongside the numbers.

A loop that takes one stream per index, such as the label-shift trials, takes
them from :func:`rekeyed_stream`: one generator re-keyed in place, whose draws
after a re-key to ``index`` are those of ``stream(seed, index)``, one for one.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "numpy.random.Philox4x64"

KEY_LIMIT = 2**64


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for the pair (seed, index).

    Streams for distinct indices under the same seed are statistically
    independent (distinct Philox keys), so Monte Carlo trials can be keyed
    by trial index and still run in any order.
    """
    if not (0 <= seed < KEY_LIMIT and 0 <= index < KEY_LIMIT):
        raise ValueError(f"seed and index must lie in [0, 2**64), got ({seed}, {index})")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekeyed_stream(seed: int):
    """A function ``index -> stream(seed, index)`` that re-keys one generator in place.

    Re-keying restores the state of a freshly keyed Philox: counter 0, key
    (seed, index), an empty buffer and no spare 32 bits (``has_uint32`` 0),
    so nothing a previous index drew carries over.  It skips the entropy
    gathering that building a generator does before its key overrides it.
    The returned generator is the same object on every call, so each call
    ends the stream the previous one returned.
    """
    generator = stream(seed)
    bit_generator = generator.bit_generator
    fresh = bit_generator.state
    key = fresh["state"]["key"]

    def rekey(index: int) -> np.random.Generator:
        if not 0 <= index < KEY_LIMIT:
            raise ValueError(f"seed and index must lie in [0, 2**64), got ({seed}, {index})")
        key[1] = index
        bit_generator.state = fresh
        return generator

    return rekey
