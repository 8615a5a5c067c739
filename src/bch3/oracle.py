"""Exhaustive ground truth for the coset computations.

Two independent checks live here: a brute-force count of weight-4
words per syndrome (enumerating 4-subsets of the field), and the exact
covering radius via breadth-first search over the scaling orbits of the
syndrome group.

None of this shares logic with the curve-side closed forms; it exists so
the fast pipeline can be validated end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2m import FieldSpec, inverse_table, log_tables, make_field, power_table

BRUTE_Q_LIMIT = 512
BFS_MAX_M = 9
_CHUNK = 1 << 14  # BFS neighbours marked per numpy pass; small passes stay in cache


@lru_cache(maxsize=None)
def weight4_histogram(field: FieldSpec) -> np.ndarray:
    """count[s3*q + s5] = number of 4-subsets {x1..x4} of F_q with
    sum xi = 1, sum xi^3 = s3, sum xi^5 = s5.

    Enumerates ordered triples x1 < x2 < x3, completes x4 from the linear
    equation, and keeps x4 > x3 so each unordered 4-set is counted once.
    """
    q = field.q
    if q > BRUTE_Q_LIMIT:
        raise ValueError(f"q={q} is too large for the exhaustive oracle (limit {BRUTE_Q_LIMIT})")
    cube, fifth = power_table(field, 3), power_table(field, 5)
    counts = np.zeros(q * q, dtype=np.int64)
    for x1 in range(q - 3):
        rest = np.arange(x1 + 1, q, dtype=np.int64)
        i2, i3 = np.triu_indices(len(rest), k=1)
        x2 = rest[i2]
        x3 = rest[i3]
        x4 = 1 ^ x1 ^ x2 ^ x3
        keep = x4 > x3
        x2, x3, x4 = x2[keep], x3[keep], x4[keep]
        s3 = cube[x1] ^ cube[x2] ^ cube[x3] ^ cube[x4]
        s5 = fifth[x1] ^ fifth[x2] ^ fifth[x3] ^ fifth[x4]
        counts += np.bincount(s3 * q + s5, minlength=q * q)
    counts.flags.writeable = False
    return counts


def brute_N(field: FieldSpec, a: int, b: int) -> int:
    """Number of 4-subsets of F_q with power sums (1, a, b), by enumeration.

    Defined for every (a, b); degenerate parameter choices simply count
    solutions on the degenerate curve.
    """
    field._check(a)
    field._check(b)
    return int(weight4_histogram(field)[a * field.q + b])


@dataclass(frozen=True)
class CoveringRadiusReport:
    """BFS result over the syndrome group: per-depth counts and the radius."""

    m: int
    rho: int
    reached_at_weight: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"m": self.m, "rho": self.rho, "reached_at_weight": list(self.reached_at_weight)}


def _f2_rank(vectors) -> int:
    """Rank of a set of bit vectors over F_2 (row reduction on ints)."""
    basis: list[int] = []
    for v in vectors:
        v = int(v)
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def _orbit_depths(field: FieldSpec) -> np.ndarray:
    """BFS depth from 0 of every scaling-orbit normal form; -1 if unreached.

    Index s1 << 2m | a << m | b holds the state (s1, a, b) for s1 in {0, 1}:
    (1, a, b) stands for its whole orbit {(c, c^3 a, c^5 b) : c != 0}, and
    (0, a, b) for itself (see docs/covering_radius_bfs.md).  A step by the
    generator of x lands on t = (s1 ^ x, a ^ x^3, b ^ x^5), which is
    rescaled by 1/(s1 ^ x) unless s1 ^ x = 0.  Every s1 = 0 state found at
    a depth gets its whole orbit marked at that depth.
    """
    m, q, n = field.m, field.q, field.q - 1
    exp, log = log_tables(field)
    # scaled[log_of[v] + k] = v * g^k for 0 <= k < n, zero included:
    # two periods of exp, then the zero block that log_of[0] points into.
    scaled = np.concatenate([exp, exp, np.zeros(n, dtype=np.int64)])
    log_of = log.copy()
    log_of[0] = 2 * n
    # log of (1/t)^3 and (1/t)^5 per t, and 0 (scale by 1) at t = 0
    inv_log = log[inverse_table(field)]
    inv3, inv5 = 3 * inv_log % n, 5 * inv_log % n
    xs = np.arange(1, q, dtype=np.int64)
    cube, fifth = power_table(field, 3)[1:], power_table(field, 5)[1:]
    ks = np.arange(n, dtype=np.int64)
    k3, k5 = 3 * ks % n, 5 * ks % n
    rows = max(1, _CHUNK // n)

    depth = np.full(2 * q * q, -1, dtype=np.int8)
    depth[0] = 0
    hit = np.zeros(depth.shape, dtype=bool)
    d = 0
    while True:
        hit[:] = False
        frontier = np.flatnonzero(depth == d)
        for lo in range(0, len(frontier), rows):
            state = frontier[lo : lo + rows, None]
            t = state >> 2 * m ^ xs
            a = scaled[log_of[state >> m & n ^ cube] + inv3[t]]
            b = scaled[log_of[state & n ^ fifth] + inv5[t]]
            hit[(t != 0).astype(np.int64) << 2 * m | a << m | b] = True
        new = hit & (depth < 0)
        zero = np.flatnonzero(new[: q * q])
        for lo in range(0, len(zero), rows):
            state = zero[lo : lo + rows, None]
            new[scaled[log_of[state >> m] + k3] << m | scaled[log_of[state & n] + k5]] = True
        if not new.any():
            return depth
        d += 1
        depth[new] = d


def covering_radius(m: int) -> CoveringRadiusReport:
    """Exact covering radius of the length-(2^m - 1) code, by syndrome BFS.

    The Cayley graph of the syndrome group under xor with generators
    (x, x^3, x^5) for x in F_q^* has involutive generators, so BFS depth
    from 0 equals the minimum coset weight and the eccentricity of 0 is
    the covering radius.  Scaling x -> c*x permutes the generators, so the
    BFS runs on its orbits (see docs/covering_radius_bfs.md).  The syndrome
    group is the F_2-span of the generators: all of F_q^3 for odd m, but
    a proper subgroup when fifth powers collapse into a subfield (m = 4).
    """
    if not 4 <= m <= BFS_MAX_M:
        raise ValueError(f"the covering-radius search covers 4 <= m <= {BFS_MAX_M}, got m={m}")
    field = make_field(m)
    q = field.q
    depth = _orbit_depths(field)
    rho = int(depth.max())
    plain, orbits = depth[: q * q], depth[q * q :]
    # an s1 = 1 normal form stands for q - 1 syndromes, an s1 = 0 state for one
    layers = (q - 1) * np.bincount(orbits[orbits >= 0], minlength=rho + 1)
    layers += np.bincount(plain[plain >= 0], minlength=rho + 1)
    reached = tuple(int(v) for v in layers)
    xs = np.arange(1, q, dtype=np.int64)
    gens = xs | power_table(field, 3)[1:] << m | power_table(field, 5)[1:] << 2 * m
    if sum(reached) != 1 << _f2_rank(gens):
        raise AssertionError("BFS stopped before exhausting the syndrome group")
    return CoveringRadiusReport(m=m, rho=rho, reached_at_weight=reached)
