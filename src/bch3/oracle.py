"""Exhaustive ground truth for the coset computations.

Two independent checks live here: a brute-force count of weight-4
words per syndrome, every row (1, a, *) read from one histogram per
field of the 4-subsets through 0, keyed by an F_2-linear map of the
syndrome that every translation x -> x + t leaves fixed (see
docs/weight4_oracle.md), and the exact covering radius via breadth-first
search over the scaling and Frobenius orbits of the syndrome group (see
docs/covering_radius_bfs.md).

None of this shares logic with the curve-side closed forms; it exists so
the fast pipeline can be validated end to end.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd

import numpy as np

from .gf2m import FieldSpec, _readonly, _span_tables, make_field, power_table, scaling_table

BRUTE_Q_LIMIT = 1 << 15
BFS_MAX_M = 13
_CHUNK = 1 << 14  # BFS neighbours, labelled states or table entries per numpy pass, cache-sized
_SETS_CHUNK = 1 << 15  # base sets per block of the weight-4 oracle, at most: 256 KB int64 blocks


@lru_cache(maxsize=None)
def _cube_fifth(field: FieldSpec) -> np.ndarray:
    """cols[x] = x^3 << m | x^5, the low 2m bits of the column of x in the
    orbit search's layout s1 << 2m | s3 << m | s5, as a read-only int64 array."""
    return _readonly(power_table(field, 3) << field.m | power_table(field, 5))


@lru_cache(maxsize=None)
def _key_counts(field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(key, counts): key[v] = Tr(v) << m | D(v) for every element v, D the drift
    t + t^4 at t^2 + t = v extended linearly past the trace-0 hyperplane, and
    counts[k] = half the number of base sets {0, x, y, z} with sum 1 whose
    syndrome (s3, s5) has key[s3] ^ s5 = k, 2q entries; both read-only.

    Tr and D are F_2-linear (see docs/weight4_oracle.md), so a base set's key
    is the xor of the columns key[x^3] ^ x^5 of its three nonzero members.
    The base sets are enumerated once per field, level by level in the top
    bit of x, with no set enumerated twice or thrown away.
    """
    q, m = field.q, field.m
    if q > BRUTE_Q_LIMIT:
        raise ValueError(f"q={q} is too large for the exhaustive oracle (limit {BRUTE_Q_LIMIT})")
    cube_fifth = _cube_fifth(field)
    t = np.arange(q, dtype=np.int64)
    bits = np.arange(m)
    trace = _span_tables(field.trace_mask >> bits & 1)  # trace[v] = Tr(v)
    # drift[t + t^2] = t + t^4, the same from both roots, read on the hyperplane
    # Tr = 0 through the projection v -> v + Tr(v) w0, w0 the least element of trace 1
    drift = np.zeros(q, dtype=np.int64)
    drift[t ^ power_table(field, 2)] = t ^ power_table(field, 4)
    drift = drift[t ^ trace * (field.trace_mask & -field.trace_mask)]
    if not np.array_equal(drift, _span_tables(drift[1 << bits])):
        raise AssertionError("the drift must be F_2-linear: the span of its basis values")
    key = trace << m | drift
    cols = key[cube_fifth >> m] ^ cube_fifth & (q - 1)
    counts = np.zeros(2 * q, dtype=np.int64)
    for k in range(1, m - 1):
        # x in [2^k, 2^(k+1)); y >= 2^(k+1) with bit k clear, so z = y ^ (1 ^ x)
        # differs from y first in bit k, where z has it set: x < y < z
        xs = t[1 << k : 2 << k, None]
        ys = t[2 << k :].reshape(-1, 2 << k)[:, : 1 << k].ravel()
        y_cols = cols[ys]
        block = max(1, _SETS_CHUNK // len(ys))  # x values per block
        for lo in range(0, len(xs), block):
            x = xs[lo : lo + block]
            key_sum = cols[ys ^ (1 ^ x)]  # in place from here: a fresh block per xor costs page faults
            key_sum ^= y_cols
            key_sum ^= cols[x]
            counts += np.bincount(key_sum.ravel(), minlength=2 * q)
    if (counts & 1).any():
        raise AssertionError("key counts must be even: the four base sets of a 4-set share one key")
    return _readonly(key), _readonly(counts >> 1)


def weight4_rows(field: FieldSpec, avals) -> np.ndarray:
    """rows[i, b] = number of 4-subsets of F_q with power sums (1, avals[i], b),
    as a read-only (len(avals), q) int64 array.

    Counts over translations (see docs/weight4_oracle.md): a base set
    {0, x, y, z} with sum 1 and syndrome (s3, s5) shifted by t lands on
    (a, s5 + t + t^4) iff t^2 + t = a + s3, which has the two roots t and
    t + 1 iff Tr(a + s3) = 0; both move s5 alike.  Each 4-set is met from
    four (set, shift) pairs and each base set that lands stands for two, so
    the counts are halved.  The drift t + t^4 is linear in a + s3, so the
    base sets that land on (a, b) are those with key (Tr s3, s5 + D(s3))
    equal to (Tr a, b + D(a)): every row is a gather from one cached
    histogram of the keys (_key_counts), however many rows are asked for.
    """
    avals = np.array([field._check(a) for a in avals], dtype=np.int64)
    key, counts = _key_counts(field)
    b = np.arange(field.q, dtype=np.int64)
    rows = np.empty((len(avals), field.q), dtype=np.int64)
    block = max(1, _CHUNK // field.q)  # rows per gather
    for lo in range(0, len(avals), block):
        rows[lo : lo + block] = counts[key[avals[lo : lo + block], None] ^ b]
    return _readonly(rows)


def weight4_histogram(field: FieldSpec) -> np.ndarray:
    """count[s3*q + s5] for every syndrome: a flat view of
    weight4_rows(field, range(q)), q^2 entries, so q <= 512 only."""
    if field.q > 512:
        raise ValueError(f"q={field.q} is too large for the full histogram (limit 512)")
    return weight4_rows(field, range(field.q)).reshape(-1)


def brute_N(field: FieldSpec, a: int, b: int) -> int:
    """Number of 4-subsets of F_q with power sums (1, a, b), by enumeration.

    Defined for every (a, b); degenerate parameter choices simply count
    solutions on the degenerate curve.  b is checked before row a of
    weight4_rows is read, and weight4_rows checks a before it enumerates.
    """
    field._check(b)
    return int(weight4_rows(field, (a,))[0, b])


@dataclass(frozen=True)
class CoveringRadiusReport:
    """BFS result over the syndrome group: per-depth counts and the radius."""

    m: int
    rho: int
    reached_at_weight: tuple[int, ...]


def _f2_rank(vectors) -> int:
    """Rank of a set of bit vectors over F_2: one elimination pass per
    pivot, which clears the pivot's top bit from every vector."""
    vs = np.asarray(vectors, dtype=np.int64)
    rank = 0
    while len(vs := vs[vs != 0]):
        vs = np.minimum(vs, vs ^ vs[0])
        rank += 1
    return rank


def _group_order(field: FieldSpec) -> int:
    """Size of the syndrome group: 2 to the F_2-rank of the columns."""
    xs = np.arange(1, field.q, dtype=np.int64)
    return 1 << _f2_rank(xs << 2 * field.m | _cube_fifth(field)[1:])


def _orbit_labels(field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(label, listed): label[t] = the least state in the orbit of state t, an int32
    table over the 2q^2 states of _orbit_depths, and the sorted states that are their
    own label.  Closed form, with no orbit listed: a few tables of O(q) entries give
    each state's least member in one gather (see docs/covering_radius_bfs.md)."""
    m, q, n = field.m, field.q, field.q - 1
    scaled, log_of = scaling_table(field)
    elements = np.arange(q)
    conj = np.empty((m, q), dtype=np.int64)  # conj[i, v] = v^(2^i)
    conj[0] = elements
    for i in range(1, m):
        conj[i] = power_table(field, 2)[conj[i - 1]]
    # s1 = 1: a's least conjugate a*, first at i*, recurs every p steps, p the Frobenius
    # period of a, so b* = min over j of conj[i* + j p, b], row row_of[p] + i* of least_b
    divisors = [p for p in range(1, m + 1) if m % p == 0]
    least_b = np.stack([conj[i::p].min(axis=0) for p in divisors for i in range(p)])
    row_of = np.zeros(m + 1, dtype=np.int64)
    row_of[divisors] = np.cumsum([0, *divisors[:-1]])
    period = np.argmax(np.roll(conj, -1, axis=0) == elements, axis=0) + 1
    key = row_of[period] + conj.argmin(axis=0)
    high = q * q | conj.min(axis=0) << m  # (1, a*, 0)
    # s1 = 0, a != 0: c^3 a is least, rep[r] for a's cube coset r, at c = c_a z for the
    # d3 cube roots of unity z; lowest[log b + shift[a]] is the least of those c^5 b,
    # so (a, b)'s scaling orbit has the point (r, v) and least member rep[r] << m | v
    d3, d5 = gcd(3, n), gcd(5, n)
    rep = scaled[:n].reshape(-1, d3).min(axis=0)
    coset = log_of % d3
    shift = 5 * ((log_of[rep][coset] - log_of) % n // d3 * pow(3 // d3, -1, n // d3)) % n
    lowest = np.concatenate([np.tile(scaled[:n].reshape(d3, -1).min(axis=0), 2 * d3), 0 * scaled[:n]])
    # Frobenius moves the points: least[r, v] = the least rep[r'] << m | v' over the m iterates
    iterates = (rep[coset[a], None] << m | lowest[log_of[b] + shift[a, None]] for a, b in zip(conj[:, rep], conj))
    least = reduce(np.minimum, iterates)[:, lowest].ravel()  # read at r * 3n + log b + shift[a]
    offset = coset * 3 * n + shift
    # a = 0: c^5 b runs over b's coset of the fifth powers, Frobenius doubles its index mod d5
    zero_row = scaled[:n].reshape(-1, d5).min(axis=0)[log_of[conj] % d5].min(axis=0)
    zero_row[0] = 0
    label = np.empty(2 * q * q, dtype=np.int32)
    listed = array("q")  # int64, one growing buffer: many small arrays would fragment the heap
    rows = max(1, _CHUNK // q)
    for s1 in (0, 1):
        for lo in range(0, q, rows):
            at = slice(lo, lo + rows)
            code = least_b[key[at]] | high[at, None] if s1 else least[offset[at, None] + log_of]
            if s1 == lo == 0:
                code[0] = zero_row
            start = s1 * q * q + lo * q
            label[start : start + code.size] = code.ravel()
            if (code[:, 0] >> m == s1 * q + elements[at]).any():  # only rows whose labels keep their (s1, a)
                own = np.flatnonzero(code.ravel() == np.arange(start, start + code.size))
                listed.frombytes((start + own).tobytes())
    return label, np.frombuffer(listed, dtype=np.int64)


def _orbit_depths(field: FieldSpec) -> np.ndarray:
    """BFS depth from 0 of every scaling-orbit normal form; -1 if unreached.

    Index s1 << 2m | a << m | b holds the state (s1, a, b) for s1 in {0, 1}:
    (1, a, b) stands for its whole orbit {(c, c^3 a, c^5 b) : c != 0}, and
    (0, a, b) for itself (see docs/covering_radius_bfs.md).  A step by the
    generator of x lands on t = (s1 ^ x, a ^ x^3, b ^ x^5), which is
    rescaled by 1/(s1 ^ x) unless s1 ^ x = 0.

    Only orbit labels (_orbit_labels) get depths; any other state has the
    depth of its label.  A step from depth d goes top-down while the
    frontier's edges are fewer than the open labels: it expands the
    frontier and gives depth d + 1 to the open labels of the states it
    hits.  Otherwise it goes bottom-up: every open label tries the
    generators a block at a time and takes depth d + 1 at its first
    neighbour whose label has depth d.  The search stops when no label is
    open, or when a step finds nothing; the caller tells the two apart by
    the group order.
    """
    m, q, n = field.m, field.q, field.q - 1
    scaled, log_of = scaling_table(field)
    scaled_hi = scaled << m
    xs = np.arange(1, q, dtype=np.int64)
    cols = _cube_fifth(field)[1:]
    # per slice s1 and generator x: the s1 bit of s1 ^ x and the logs of the
    # rescaling 1/(s1 ^ x) cubed and to the fifth; s1 ^ x = 0 keeps scale 1 (log 0)
    steps = [
        ((lead != 0).astype(np.int64) << 2 * m, -3 * log_of[lead] % n, -5 * log_of[lead] % n)
        for lead in (xs, 1 ^ xs)
    ]

    def step(state, s1, gens=slice(None)):
        """Neighbours of a column of slice-s1 states by the generators gens, as normal forms."""
        top, inv3, inv5 = (v[gens] for v in steps[s1])
        t = state ^ cols[gens]  # x^3 << m | x^5 onto the low 2m bits
        return top | scaled_hi[log_of[t >> m & n] + inv3] | scaled[log_of[t & n] + inv5]

    def by_slice(states):
        split = np.searchsorted(states, q * q)
        return enumerate((states[:split], states[split:]))

    label, pending = _orbit_labels(field)  # no other name holds the list past the first split
    depth = np.full(2 * q * q, -1, dtype=np.int8)
    depth[0] = d = 0
    pending = pending[1:]
    frontier = np.zeros(1, dtype=np.int64)
    rows = max(1, _CHUNK // n)
    while len(pending):
        if len(frontier) * n < len(pending):  # top-down
            for s1, part in by_slice(frontier):
                for lo in range(0, len(part), rows):
                    hit = label[step(part[lo : lo + rows, None], s1)]
                    depth[hit[depth[hit] < 0]] = d + 1
        else:  # bottom-up, in blocks of generators that widen as labels are found
            for s1, part in by_slice(pending):
                lo = 0
                while len(part) and lo < n:
                    width = max(1, _CHUNK // len(part))
                    block = _CHUNK // width
                    for r in range(0, len(part), block):
                        state = part[r : r + block]
                        near = depth[label[step(state[:, None], s1, slice(lo, lo + width))]] == d
                        depth[state[near.any(axis=1)]] = d + 1
                    part = part[depth[part] < 0]
                    lo += width
        found = depth[pending] > d
        if not found.any():
            break  # stalled: the open labels are out of reach
        frontier, pending, d = pending[found], pending[~found], d + 1
    return depth[label]


def _layers(depth: np.ndarray, q: int) -> list[int]:
    """Syndromes per depth: q - 1 per s1 = 1 normal form, one per s1 = 0 state."""
    plain, orbits = depth[: q * q], depth[q * q :]
    return [
        int((q - 1) * np.count_nonzero(orbits == d) + np.count_nonzero(plain == d))
        for d in range(depth.max() + 1)
    ]


def covering_radius(m: int) -> CoveringRadiusReport:
    """Exact covering radius of the length-(2^m - 1) code, by syndrome BFS.

    The Cayley graph of the syndrome group under xor with generators
    (x, x^3, x^5) for x in F_q^* has involutive generators, so BFS depth
    from 0 equals the minimum coset weight and the eccentricity of 0 is
    the covering radius.  Scaling x -> c*x and squaring x -> x^2 permute
    the generators, so the BFS runs on their orbits (see
    docs/covering_radius_bfs.md).  The syndrome group is the F_2-span of
    the generators: all of F_q^3 for odd m, but a proper subgroup when
    fifth powers collapse into a subfield (m = 4).  Its order is computed
    once from the columns, and the layers of the finished depth table
    must sum to it.
    """
    if not 4 <= m <= BFS_MAX_M:
        raise ValueError(f"the covering-radius search covers 4 <= m <= {BFS_MAX_M}, got m={m}")
    field = make_field(m)
    group_order = _group_order(field)
    reached = tuple(_layers(_orbit_depths(field), field.q))
    if sum(reached) != group_order:
        raise AssertionError(
            f"BFS layers hold {sum(reached)} syndromes, the syndrome group {group_order}"
        )
    return CoveringRadiusReport(m=m, rho=len(reached) - 1, reached_at_weight=reached)
