"""Machine-speed reference kernels: how fast is this core at this moment?

On a shared host the speed of a core drifts with the neighbours' load: on
the 2-core sandbox this benchmark was built on, a fixed pure-Python loop
and a fixed numpy loop both swung by up to 35% within seconds and by about
50% over minutes, in user CPU time as much as in wall time.  Raw times of a
20-second run mostly measured that drift.

So every timed operation is bracketed by reference kernels, each timed as
the fastest of three runs right before and right after it.  The kernels
never touch bch3, so no change to the package moves them.  Each mimics the
style of one workload's hot loop, because interpreter-bound, cache-bound
and memory-bound code slow down by different factors.  An operation's
normalised time is

    raw seconds * NOMINAL_S[kind] / (mean of the two reference timings),

its time at the speed at which each kernel takes NOMINAL_S (the kernels'
median times on that sandbox).  Raw times are printed next to it.
"""

from __future__ import annotations

import functools
import time

import numpy as np

import inputs

NOMINAL_S = {"python": 5.0e-4, "small": 9.4e-4, "medium": 4.2e-4, "large": 1.7e-2}

# Fixed pseudo-random elements of F_2^13 (Fibonacci hashing of 1..q-1).
_ELEMENTS = (np.arange(1, 1 << 13, dtype=np.int64) * 0x9E3779B1) >> 19 & 0x1FFF
_TRIU = 250
# A BFS-sized frontier chunk: 2^15 pseudo-random states of a 2^21 space.
_FRONTIER = (np.arange(1 << 15, dtype=np.int64) * 0x9E3779B1) & ((1 << 21) - 1)
_GENS = np.arange(1, 128)


def _python():
    """Scalar GF(2^13) products, like the package's per-element field loops."""
    a = 1
    for x in range(1, 300):
        a = inputs.gf_mul(a, x, 0x201B) or 1


def _small():
    """Masked-popcount parity counts over F_q^*, like one point lookup."""
    for lam in range(1, 60):
        np.count_nonzero(np.bitwise_count(lam & _ELEMENTS) & 1)


def _medium():
    """Pair enumeration and a histogram, like the weight-4 oracle."""
    i2, i3 = np.triu_indices(_TRIU, k=1)
    np.bincount((i2 ^ i3 ^ 5) * 3 % 4096, minlength=4096)


@functools.cache
def _visited_table() -> np.ndarray:
    """Allocated on first use only, so other workloads' RSS never sees it."""
    return np.zeros(1 << 21, dtype=bool)


def _large():
    """One BFS step over a 2^21-entry table: a fresh 33 MB xor block,
    scattered, masked and counted.  The BFS is bound by memory traffic,
    which only a kernel of the same size tracks."""
    stepped = np.zeros(1 << 21, dtype=bool)
    stepped[(_FRONTIER[:, None] ^ _GENS[None, :]).ravel()] = True
    np.count_nonzero(stepped & ~_visited_table())


KERNELS = {"python": _python, "small": _small, "medium": _medium, "large": _large}


def factor(kinds: tuple[str, ...]) -> float:
    """NOMINAL / measured for the sum of the given kernels."""
    measured = 0.0
    for kind in kinds:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            KERNELS[kind]()
            best = min(best, time.perf_counter() - start)
        measured += best
    return sum(NOMINAL_S[kind] for kind in kinds) / measured


def timed(kinds: tuple[str, ...], fn, *args):
    """(raw seconds, normalised seconds, result) of one call."""
    before = factor(kinds)
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    after = factor(kinds)
    # Mean of the reference times, not of the factors.
    return raw, raw * 2 / (1 / before + 1 / after), result
