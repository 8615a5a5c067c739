"""Shared fixtures and slow reference implementations.

The reference helpers here recompute traces and fibre counts straight
from the definitions (Frobenius-power sums, per-x field evaluation), so
the fast mask kernels are always checked against an independent path;
irreducible_by_trial_division stands behind Ben-Or's test in gf2m, and
mul_array (shift-and-reduce products over whole arrays) stands behind
the constant multiplier of the field tables, and f2_rank_by_loop,
full_group_bfs_layers and weight4_histogram_by_triples do the same for
the group order, the orbit BFS and the translation-orbit histogram of
the oracle, and invariants_emptied_around steps one syndrome state by
scalar products against the depth certificate of coset.covering_layers,
whose listing of open states open_states_by_grid checks over all 2q^2
states.
dual_weights_by_enumeration and weight4_histogram_by_triples
at sum 0 stand behind the two closed forms of the second-moment gate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from bch3.gf2m import FieldSpec, make_field, poly_mod, power_table


@pytest.fixture(scope="session")
def f4() -> FieldSpec:
    return make_field(4)


@pytest.fixture(scope="session")
def f5() -> FieldSpec:
    return make_field(5)


@pytest.fixture(scope="session")
def f7() -> FieldSpec:
    return make_field(7)


def irreducible_by_trial_division(p: int) -> bool:
    """No polynomial of degree 1 to deg(p)/2 divides p: every one is tried."""
    m = p.bit_length() - 1
    return m >= 1 and all(poly_mod(p, d) for d in range(2, 1 << (m // 2 + 1)))


def mul_array(field: FieldSpec, a, b) -> np.ndarray:
    """Elementwise product of two broadcastable int64 arrays of elements.

    The algorithm of FieldSpec.mul, run on whole arrays: one
    shift-and-reduce pass per bit of b, whatever the array size.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    a = a.copy()
    r = np.zeros(a.shape, dtype=np.int64)
    for j in range(field.m):
        r ^= a & -((b >> j) & 1)
        a <<= 1
        a ^= (a >> field.m) * field.modulus
    return r


def trace_by_definition(field: FieldSpec, a: int) -> int:
    """a + a^2 + ... + a^(2^(m-1)), no mask shortcuts."""
    acc = a
    s = a
    for _ in range(field.m - 1):
        s = field.mul(s, s)
        acc ^= s
    assert acc in (0, 1)
    return acc


def phi_by_hand(field: FieldSpec, i: int, x: int, lam: int) -> int:
    """The seven family functions evaluated term by term."""
    x3 = field.mul(field.mul(x, x), x)
    ix = field.inv(x)
    ix3 = field.mul(field.mul(ix, ix), ix)
    terms = {
        1: x3 ^ x,
        2: ix3 ^ ix,
        3: x ^ ix,
        4: x3 ^ x ^ ix3 ^ ix,
        5: x3 ^ ix,
        6: ix3 ^ x,
        7: x3 ^ ix3,
    }
    return field.mul(lam, terms[i])


def n_count_slow(field: FieldSpec, i: int, lam: int, offset_bit: int) -> int:
    return sum(
        1
        for x in range(1, field.q)
        if trace_by_definition(field, phi_by_hand(field, i, x, lam)) == offset_bit
    )


def g_count_slow(field: FieldSpec, lam: int) -> int:
    count = 0
    for x in range(1, field.q):
        value = field.mul(lam, field.mul(field.mul(x, x), x)) ^ field.inv(x)
        count += trace_by_definition(field, value) == 0
    return count


def read_profile_fixture(path) -> list[dict]:
    """Rows of a profile fixture as dicts with int values (hex cells are
    field elements, the rest decimal counts)."""
    with open(path) as fh:
        header = fh.readline().strip().split("\t")
        rows = []
        for line in fh:
            cells = line.strip().split("\t")
            row = dict(zip(header, cells))
            for key, value in row.items():
                row[key] = int(value, 16) if value.startswith("0x") else int(value)
            rows.append(row)
    return rows


def f2_rank_by_loop(vectors) -> int:
    """Rank of a set of bit vectors over F_2, reduced one vector at a time
    against a growing basis of Python ints."""
    basis: list[int] = []
    for v in vectors:
        v = int(v)
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


@lru_cache(maxsize=None)
def full_group_bfs_layers(m: int) -> tuple[int, ...]:
    """Syndromes at each BFS depth from 0, over all 2^(3m) packed triples
    s1 | s3 << m | s5 << 2m: no orbits, no normal forms.  m <= 7 only."""
    assert m <= 7, "the full-group table has 2^(3m) entries"
    field = make_field(m)
    xs = np.arange(1, field.q, dtype=np.int64)
    gens = xs | power_table(field, 3)[1:] << m | power_table(field, 5)[1:] << 2 * m
    visited = np.zeros(1 << 3 * m, dtype=bool)
    visited[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    layers = [1]
    while True:
        stepped = np.zeros_like(visited)
        for lo in range(0, len(frontier), 1 << 12):
            stepped[(frontier[lo : lo + (1 << 12), None] ^ gens).ravel()] = True
        new = stepped & ~visited
        if not new.any():
            return tuple(layers)
        visited |= new
        frontier = np.flatnonzero(new)
        layers.append(len(frontier))


def invariants_emptied_around(invariants, field: FieldSpec, state: tuple[int, int, int]):
    """A stand-in for coset.invariants that reads N = 0 at every slot
    Tr A' << m | lam' with lam' != 0 reached from the syndrome state
    (s1, a, b) by one step (s1 + x, a + x^3, b + x^5) scaled to its normal
    form (1, A', B'): scalar field products, one x at a time.  In its table
    the state has no neighbour of depth <= 4."""
    s1, a, b = state
    slots = set()
    for x in range(1, field.q):
        if s1 ^ x:
            c = field.inv(s1 ^ x)
            big_a = field.mul(field.pow(c, 3), a ^ field.pow(x, 3))
            big_b = field.mul(field.pow(c, 5), b ^ field.pow(x, 5))
            lam = big_b ^ field.mul(big_a, big_a) ^ big_a ^ 1
            if lam:
                slots.add(trace_by_definition(field, big_a) << field.m | lam)

    def emptied(f):
        values = invariants(f).copy()
        values[sorted(slots)] = 0
        return values

    return emptied


def open_states_by_grid(values: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The states s1 << 2m | a << m | b, in order, that the depth-five
    certificate must settle by some x >= 2, from the full (2, q, q) grid:
    (0, a, b) != 0 when its step by x = 1, (1, a + 1, b + 1), has N <= 0,
    and (1, a, b) when N = 0 or lam = 0 and Tr A = 0.  N(A, B) is
    values[key[A] ^ B]."""
    q = len(key)
    m = q.bit_length() - 1
    elements = np.arange(q)
    deep = values == 0
    deep[0] = True
    left = np.stack([values[key[elements ^ 1, None] ^ elements ^ 1] <= 0, deep[key[:, None] ^ elements]])
    left[0, 0, 0] = False  # the root
    s1, a, b = np.nonzero(left)
    return s1 << 2 * m | a << m | b


def weight4_histogram_by_triples(field: FieldSpec, total: int = 1) -> np.ndarray:
    """count[s3*q + s5] over every 4-subset of F_q with sum `total`:
    ordered triples x1 < x2 < x3, x4 completed from the linear equation and
    kept when x4 > x3, so each 4-set is counted once.  No translation orbits."""
    q = field.q
    cube, fifth = power_table(field, 3), power_table(field, 5)
    counts = np.zeros(q * q, dtype=np.int64)
    for x1 in range(q - 3):
        rest = np.arange(x1 + 1, q, dtype=np.int64)
        i2, i3 = np.triu_indices(len(rest), k=1)
        x2 = rest[i2]
        x3 = rest[i3]
        x4 = total ^ x1 ^ x2 ^ x3
        keep = x4 > x3
        x2, x3, x4 = x2[keep], x3[keep], x4[keep]
        s3 = cube[x1] ^ cube[x2] ^ cube[x3] ^ cube[x4]
        s5 = fifth[x1] ^ fifth[x2] ^ fifth[x3] ^ fifth[x4]
        counts += np.bincount(s3 * q + s5, minlength=q * q)
    return counts


def dual_weights_by_enumeration(field: FieldSpec) -> dict[int, int]:
    """Weight histogram of every word Tr(ax + bx^3 + cx^5) + e, each word
    written out as its q trace bits (products by mul_array, traces by
    repeated squaring) and its weight counted bit by bit.  No Walsh values."""
    q, m = field.q, field.m
    x = np.arange(q, dtype=np.int64)

    def trace_rows(points):
        # rows[a, i] = Tr(a * points[i]), packed along i
        acc = s = mul_array(field, x[:, None], points[None, :])
        for _ in range(m - 1):
            s = mul_array(field, s, s)
            acc = acc ^ s
        return np.packbits(acc.astype(np.uint8), axis=1)

    square = mul_array(field, x, x)
    cube = mul_array(field, square, x)
    cubic = trace_rows(cube)[:, None, :]
    quintic = trace_rows(mul_array(field, square, cube))[None, :, :]
    counts = np.zeros(q + 1, dtype=np.int64)
    for row in trace_rows(x):
        weights = np.bitwise_count(row ^ cubic ^ quintic).sum(axis=2, dtype=np.int64)
        counts += np.bincount(weights.ravel(), minlength=q + 1)
    counts += counts[::-1]  # e = 1 complements every word
    return {w: int(c) for w, c in enumerate(counts) if c}
