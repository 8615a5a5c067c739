"""Exhaustive ground truth for the coset computations.

Two independent checks live here: a brute-force count of weight-4
words per syndrome (enumerating the 4-subsets through 0 and spreading
them over the translation orbits x -> x + t, see docs/weight4_oracle.md),
and the exact covering radius via breadth-first search over the scaling
orbits of the syndrome group (see docs/covering_radius_bfs.md).

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

    Counts over translation orbits (see docs/weight4_oracle.md): the sets
    {0, a, b, c} with 0 < a < b < c are enumerated, their histogram is
    summed over the subgroup W = {(t + t^2, t + t^4)} by which a shift by t
    moves (s3, s5), and the sum is halved because t and t + 1 give the
    same element of W.
    """
    m, q = field.m, field.q
    if q > BRUTE_Q_LIMIT:
        raise ValueError(f"q={q} is too large for the exhaustive oracle (limit {BRUTE_Q_LIMIT})")
    cube, fifth = power_table(field, 3), power_table(field, 5)
    i, j = np.triu_indices(q - 1, k=1)
    a, b = i + 1, j + 1
    c = 1 ^ a ^ b
    keep = c > b
    a, b, c = a[keep], b[keep], c[keep]
    s3 = cube[a] ^ cube[b] ^ cube[c]
    s5 = fifth[a] ^ fifth[b] ^ fifth[c]
    counts = np.bincount(s3 << m | s5, minlength=q * q)
    idx = np.arange(q * q, dtype=np.int64)
    # W is spanned by the shifts of t = 2, 4, ..., 2^(m-1); t = 1 shifts by 0
    for t in (1 << k for k in range(1, m)):
        t2 = field.square(t)
        w3, w5 = t ^ t2, t ^ field.square(t2)
        counts += counts[idx ^ (w3 << m | w5)]
    if (counts & 1).any():
        raise AssertionError("orbit sums must be even: t and t + 1 shift alike")
    counts >>= 1
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
    a depth gets its whole orbit marked at that depth, but only the states
    found by a step are expanded.
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
    frontier = np.zeros(1, dtype=np.int64)
    d = 0
    while True:
        hit[:] = False
        for lo in range(0, len(frontier), rows):
            state = frontier[lo : lo + rows, None]
            t = state >> 2 * m ^ xs
            a = scaled[log_of[state >> m & n ^ cube] + inv3[t]]
            b = scaled[log_of[state & n ^ fifth] + inv5[t]]
            hit[(t != 0).astype(np.int64) << 2 * m | a << m | b] = True
        new = hit & (depth < 0)
        # only the states hit directly are expanded next: the orbit-mates
        # added below step to the same s1 = 1 normal forms
        frontier = np.flatnonzero(new)
        if not len(frontier):
            return depth
        zero = frontier[frontier < q * q]
        for lo in range(0, len(zero), rows):
            state = zero[lo : lo + rows, None]
            new[scaled[log_of[state >> m] + k3] << m | scaled[log_of[state & n] + k5]] = True
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
