"""Exhaustive ground truth for the coset computations.

Three independent checks live here: a brute-force count of weight-4
words per syndrome (enumerating 4-subsets of the field), a weight-5
solvability test by meet-in-the-middle over syndrome triples, and the
exact covering radius via breadth-first search over the syndrome group.

None of this shares logic with the curve-side closed forms; it exists so
the fast pipeline can be validated end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2m import FieldSpec, make_field, power_table

BRUTE_Q_LIMIT = 512
WEIGHT5_Q_LIMIT = 128
BFS_DEFAULT_MAX_M = 7
BFS_ABSOLUTE_MAX_M = 9


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


@lru_cache(maxsize=None)
def _small_weight_syndromes(field: FieldSpec):
    """Packed syndrome sets reachable by words of weight <= 2 and <= 3."""
    q, m = field.q, field.m
    cube, fifth = power_table(field, 3), power_table(field, 5)
    xs = np.arange(1, q, dtype=np.int64)
    packed = xs | cube[1:] << m | fifth[1:] << 2 * m
    pairs = (packed[:, None] ^ packed[None, :]).ravel()
    upto2 = np.unique(np.concatenate([np.zeros(1, dtype=np.int64), packed, pairs]))
    upto3 = np.unique(np.concatenate([upto2, (upto2[:, None] ^ packed[None, :]).ravel()]))
    return upto2, upto3, set(upto3.tolist())


def weight5_solvable(field: FieldSpec, a: int, b: int, c: int) -> int:
    """1 iff (x1..x5) in F_q^5 exists with power sums (a, b, c).

    Meet in the middle: syndromes of tuples split as weight <= 2 against
    weight <= 3 (repeats cancel pairwise, zeros contribute nothing).
    """
    if field.q > WEIGHT5_Q_LIMIT:
        raise ValueError(f"q={field.q} is too large for the exhaustive weight-5 search")
    field._check(a)
    field._check(b)
    field._check(c)
    target = a | b << field.m | c << 2 * field.m
    upto2, _, upto3_set = _small_weight_syndromes(field)
    return int(any(int(target ^ u) in upto3_set for u in upto2))


def weight5_reached(field: FieldSpec, chunk: int = 1 << 12) -> np.ndarray:
    """Sorted packed syndromes attainable by five coordinates (weight <= 5).

    Marks a flat boolean table chunk by chunk; the outer product of the
    two syndrome sets would not fit in memory at q = 128.
    """
    if field.q > WEIGHT5_Q_LIMIT:
        raise ValueError(f"q={field.q} is too large for the exhaustive weight-5 search")
    upto2, upto3, _ = _small_weight_syndromes(field)
    hit = np.zeros(1 << (3 * field.m), dtype=bool)
    for lo in range(0, len(upto3), chunk):
        hit[(upto3[lo : lo + chunk, None] ^ upto2[None, :]).ravel()] = True
    return np.flatnonzero(hit)


def weight5_all_solvable(field: FieldSpec) -> bool:
    """Whether every syndrome in the code's syndrome group is reachable
    at weight <= 5.

    The syndrome group is all of F_q^3 for odd m; for m = 4 fifth powers
    sit in the subfield F_4 and the group is the 2^10-element span.
    """
    reached = weight5_reached(field)
    cube, fifth = power_table(field, 3), power_table(field, 5)
    xs = np.arange(1, field.q, dtype=np.int64)
    gens = xs | cube[1:] << field.m | fifth[1:] << 2 * field.m
    return len(reached) == 1 << _f2_rank(gens)


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


def covering_radius(m: int, allow_large: bool = False, chunk: int = 1 << 15) -> CoveringRadiusReport:
    """Exact covering radius of the length-(2^m - 1) code, by syndrome BFS.

    The Cayley graph of the syndrome group under xor with generators
    (x, x^3, x^5) for x in F_q^* has involutive generators, so BFS depth
    from 0 equals the minimum coset weight and the eccentricity of 0 is
    the covering radius (see docs/covering_radius_bfs.md).  The syndrome
    group is the F_2-span of the generators: all of F_q^3 for odd m, but
    a proper subgroup when fifth powers collapse into a subfield (m = 4).
    """
    if m < 4:
        raise ValueError("the covering radius statement starts at m = 4")
    if m > BFS_ABSOLUTE_MAX_M:
        raise ValueError(f"m={m} needs more than 2^{3 * BFS_ABSOLUTE_MAX_M} bits of state")
    if m > BFS_DEFAULT_MAX_M and not allow_large:
        raise ValueError(f"m={m} is a slow, memory-hungry run; pass allow_large=True to proceed")

    field = make_field(m)
    q = field.q
    cube, fifth = power_table(field, 3), power_table(field, 5)
    xs = np.arange(1, q, dtype=np.int64)
    gens = xs | cube[1:] << m | fifth[1:] << 2 * m

    space = 1 << (3 * m)
    visited = np.zeros(space, dtype=bool)
    visited[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    reached = [1]
    while True:
        stepped = np.zeros(space, dtype=bool)
        for lo in range(0, len(frontier), chunk):
            block = frontier[lo : lo + chunk]
            stepped[(block[:, None] ^ gens[None, :]).ravel()] = True
        new = stepped & ~visited
        count = int(np.count_nonzero(new))
        if count == 0:
            break
        visited |= new
        frontier = np.flatnonzero(new)
        reached.append(count)
    if sum(reached) != 1 << _f2_rank(gens):
        raise AssertionError("BFS stopped before exhausting the syndrome group")
    return CoveringRadiusReport(m=m, rho=len(reached) - 1, reached_at_weight=tuple(reached))
